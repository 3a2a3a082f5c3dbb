//! Compact binary persistence for road networks: the `TADR` format.
//!
//! `serde_json` is not on the allowed dependency list, so networks are
//! stored as one checksummed [`tad_codec::envelope`] (magic `TADR`,
//! version 2) whose little-endian payload is:
//!
//! ```text
//! u32 node_count, node_count x (f64 x, f64 y)
//! u32 segment_count, segment_count x (u32 from, u32 to, f64 length, u8 class)
//! ```
//!
//! Version 1 carried the same payload behind a bare magic + version with
//! no checksum; it is refused as [`NetCodecError::BadVersion`].

use bytes::{BufMut, Bytes, BytesMut};
use tad_codec::{envelope_payload, seal_envelope, Reader};

use crate::geometry::Point;
use crate::graph::{NodeId, RoadClass, RoadNetwork};

const MAGIC: &[u8; 4] = b"TADR";
const VERSION: u16 = 2;

/// Errors produced when decoding a serialized network.
#[derive(Debug, PartialEq, Eq)]
pub enum NetCodecError {
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
    /// Unknown road class byte.
    BadClass(u8),
    /// A segment referenced a node index past the node table.
    DanglingNode(u32),
}

impl std::fmt::Display for NetCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetCodecError::BadMagic => write!(f, "bad magic bytes"),
            NetCodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            NetCodecError::Truncated(what) => write!(f, "truncated input at {what}"),
            NetCodecError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            NetCodecError::Malformed(what) => write!(f, "malformed network: {what}"),
            NetCodecError::BadClass(c) => write!(f, "unknown road class {c}"),
            NetCodecError::DanglingNode(n) => write!(f, "segment references missing node {n}"),
        }
    }
}

impl std::error::Error for NetCodecError {}

tad_codec::codec_error_from!(NetCodecError);

/// Serialises a road network.
pub fn network_to_bytes(net: &RoadNetwork) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + net.num_nodes() * 16 + net.num_segments() * 17);
    buf.put_u32_le(net.num_nodes() as u32);
    for n in net.node_ids() {
        let p = net.node(n).pos;
        buf.put_f64_le(p.x);
        buf.put_f64_le(p.y);
    }
    buf.put_u32_le(net.num_segments() as u32);
    for s in net.segment_ids() {
        let seg = net.segment(s);
        buf.put_u32_le(seg.from.0);
        buf.put_u32_le(seg.to.0);
        buf.put_f64_le(seg.length);
        buf.put_u8(seg.class.as_u8());
    }
    seal_envelope(MAGIC, VERSION, buf.freeze())
}

/// Deserialises a road network written by [`network_to_bytes`]. The whole
/// input must be one `TADR` blob; decoding never panics, whatever the
/// input.
///
/// # Errors
/// Returns the [`NetCodecError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, trailing bytes, an
/// unknown road class, a segment endpoint past the node table, or a
/// segment [`RoadNetwork::add_segment`] would refuse.
pub fn network_from_bytes(bytes: Bytes) -> Result<RoadNetwork, NetCodecError> {
    let payload = envelope_payload(MAGIC, VERSION, &bytes)?;
    let mut r = Reader::new(payload);
    let mut net = RoadNetwork::new();
    let node_count = r.count(8 + 8, "nodes")?;
    for _ in 0..node_count {
        net.add_node(Point::new(r.f64("node")?, r.f64("node")?));
    }
    for _ in 0..r.count(4 + 4 + 8 + 1, "segments")? {
        let (from, to) = (r.u32("segment")?, r.u32("segment")?);
        let length = r.f64("segment")?;
        let class = r.u8("segment")?;
        if let Some(&dangling) = [from, to].iter().find(|&&n| n as usize >= node_count) {
            return Err(NetCodecError::DanglingNode(dangling));
        }
        let class = RoadClass::from_u8(class).ok_or(NetCodecError::BadClass(class))?;
        // `add_segment` asserts both.
        if from == to || length <= 0.0 || length.is_nan() {
            return Err(NetCodecError::Malformed("self-loop or non-positive segment length"));
        }
        net.add_segment(NodeId(from), NodeId(to), length, class);
    }
    r.finish()?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{generate_grid_city, GridCityConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let restored = network_from_bytes(network_to_bytes(&net)).unwrap();
        assert_eq!(restored.num_nodes(), net.num_nodes());
        assert_eq!(restored.num_segments(), net.num_segments());
        for s in net.segment_ids() {
            assert_eq!(restored.segment(s), net.segment(s));
        }
        for n in net.node_ids() {
            assert_eq!(restored.node(n).pos, net.node(n).pos);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = network_to_bytes(&RoadNetwork::new()).to_vec();
        data[0] = b'X';
        assert!(matches!(network_from_bytes(Bytes::from(data)), Err(NetCodecError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let data = network_to_bytes(&net);
        let cut = data.slice(0..data.len() - 5);
        assert!(matches!(network_from_bytes(cut), Err(NetCodecError::Truncated(_))));
    }

    /// Re-seals a blob whose payload a test edited in place.
    fn reseal(mut data: Vec<u8>) -> Bytes {
        let end = data.len() - 8;
        let sum = tad_codec::checksum64(&data[tad_codec::ENVELOPE_HEADER_LEN..end]);
        data[end..].copy_from_slice(&sum.to_le_bytes());
        Bytes::from(data)
    }

    fn one_segment() -> Vec<u8> {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        net.add_segment(a, b, 1.0, RoadClass::Local);
        network_to_bytes(&net).to_vec()
    }

    #[test]
    fn bad_class_rejected() {
        let mut data = one_segment();
        let class = data.len() - 8 - 1;
        data[class] = 77;
        assert_eq!(
            network_from_bytes(Bytes::from(data.clone())).err(),
            Some(NetCodecError::ChecksumMismatch)
        );
        assert_eq!(network_from_bytes(reseal(data)).err(), Some(NetCodecError::BadClass(77)));
    }

    #[test]
    fn version_1_blobs_and_segments_the_graph_would_refuse_are_typed() {
        let mut data = one_segment();
        data[4] = 1;
        assert_eq!(network_from_bytes(data.into()).err(), Some(NetCodecError::BadVersion(1)));
        // Segment record: from, to, length, class — make it a self-loop,
        // then give it a NaN length.
        let record = one_segment().len() - 8 - 17;
        let mut data = one_segment();
        data[record] = 1;
        assert!(matches!(network_from_bytes(reseal(data)), Err(NetCodecError::Malformed(_))));
        let mut data = one_segment();
        data[record + 8..record + 16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(network_from_bytes(reseal(data)), Err(NetCodecError::Malformed(_))));
        let mut data = one_segment();
        data[record + 4] = 9;
        assert_eq!(network_from_bytes(reseal(data)).err(), Some(NetCodecError::DanglingNode(9)));
    }
}
