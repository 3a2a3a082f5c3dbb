//! Fleet snapshot/restore: versioned session persistence for warm
//! restarts.
//!
//! A [`FleetImage`] is a point-in-time capture of every live session in a
//! [`crate::FleetEngine`] — trip id, full [`ScorerState`], any
//! not-yet-scored pending segments, the `ending` flag, and the session's
//! idle age (how long since its last event, so TTL/LRU ordering survives
//! the restart even though `Instant`s do not serialize). Taking one
//! quiesces each shard: the shard finishes every event already queued
//! ahead of the snapshot request, then replies with clones of its live
//! sessions, oldest first.
//!
//! The binary format is one checksummed [`tad_codec::envelope`] (magic
//! `TADF`) whose little-endian payload is the shard count, the session
//! count, then per-session records embedding each state as a
//! length-prefixed [`causaltad::state_to_bytes`] blob. It is read back
//! through the checked [`Reader`]: decoding hostile bytes returns a typed
//! [`SnapshotCodecError`]; no input can panic the decoder.
//!
//! A restored engine resumes scoring **bit-identically**: restoring a
//! snapshot into a fresh engine and replaying the remaining events yields
//! exactly the scores of an uninterrupted run (the umbrella `fleet.rs`
//! integration test enforces this).

use bytes::{BufMut, Bytes, BytesMut};
use causaltad::{state_from_bytes, state_to_bytes, ScorerState, StateCodecError};
use tad_codec::{envelope_payload, seal_envelope, Reader};

use crate::event::TripId;

const MAGIC: &[u8; 4] = b"TADF";
const VERSION: u16 = 1;

/// One live session captured by [`crate::FleetEngine::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRecord {
    /// The trip this session belongs to.
    pub id: TripId,
    /// The full scorer state at capture time.
    pub state: ScorerState,
    /// Segments received but not yet scored. A capture runs between
    /// drains, when nothing is queued for scoring, so here this holds the
    /// reorder-held segments of an enabled [`crate::StreamPolicy`], in
    /// arrival order (always empty under the default all-off policy). A
    /// restore scores them before the session resumes.
    pub pending: Vec<u32>,
    /// A `TripEnd` had arrived but the trip was not yet finalised.
    pub ending: bool,
    /// How long the session had been idle at capture time, in
    /// microseconds. Restore subtracts this from its own clock so TTL
    /// eviction and LRU ordering carry across the restart.
    pub idle_micros: u64,
}

/// A point-in-time capture of every live session of a fleet engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetImage {
    /// Shard count of the engine that took the snapshot (informational —
    /// restore re-partitions sessions for the new engine's shard count).
    pub num_shards: u32,
    /// Every live session, grouped by source shard, oldest first within
    /// each group.
    pub sessions: Vec<SessionRecord>,
}

impl FleetImage {
    /// Concatenates per-backend captures into one fleet-wide image — the
    /// snapshot half of cross-process sharding: a router tier captures
    /// every backend's [`FleetImage`] over the wire and merges them into
    /// the single artifact a warm restart starts from.
    ///
    /// Sessions are kept in iteration order (callers that need a
    /// canonical blob should pass the parts in a fixed backend order);
    /// `num_shards` becomes the summed shard capacity of the parts —
    /// informational only, since restore re-partitions for the target
    /// engine anyway. Callers are responsible for the parts holding
    /// disjoint trip ids (distinct backends own distinct trips);
    /// duplicates are kept as-is and will be rejected per-trip at
    /// restore time.
    pub fn merge(parts: impl IntoIterator<Item = FleetImage>) -> FleetImage {
        let mut out = FleetImage::default();
        for part in parts {
            out.num_shards += part.num_shards;
            out.sessions.extend(part.sessions);
        }
        out.num_shards = out.num_shards.max(1);
        out
    }

    /// Splits this image into `parts` sub-images, sending each session to
    /// the part `route(trip id)` names — the restore half of
    /// cross-process sharding: a merged fleet capture is re-partitioned
    /// with the router's trip→backend function so each new backend
    /// resumes exactly the sessions whose future events will be routed to
    /// it. Relative session order is preserved within each part, and
    /// every part inherits this image's (informational) `num_shards`.
    ///
    /// # Panics
    /// When `parts` is zero or `route` returns an index `>= parts` — both
    /// are caller bugs in the partitioning function, not data errors.
    pub fn partition_by(
        self,
        parts: usize,
        mut route: impl FnMut(TripId) -> usize,
    ) -> Vec<FleetImage> {
        assert!(parts > 0, "cannot partition a fleet image into zero parts");
        let mut out: Vec<FleetImage> = (0..parts)
            .map(|_| FleetImage { num_shards: self.num_shards, sessions: Vec::new() })
            .collect();
        for rec in self.sessions {
            let part = route(rec.id);
            assert!(part < parts, "route({}) returned {part}, but there are {parts} parts", rec.id);
            out[part].sessions.push(rec);
        }
        out
    }
}

/// Errors produced when decoding a serialized [`FleetImage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// Magic bytes did not match `TADF`.
    BadMagic,
    /// Unsupported snapshot-format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
    /// An embedded session state blob failed to decode.
    BadSession {
        /// Position of the offending record in the session list.
        index: usize,
        /// The underlying state-codec failure.
        source: StateCodecError,
    },
}

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCodecError::BadMagic => write!(f, "bad snapshot magic bytes"),
            SnapshotCodecError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotCodecError::Truncated(what) => write!(f, "truncated snapshot at {what}"),
            SnapshotCodecError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotCodecError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotCodecError::BadSession { index, source } => {
                write!(f, "session record {index} failed to decode: {source}")
            }
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

tad_codec::codec_error_from!(SnapshotCodecError);

/// Why a live snapshot (full, checkpoint, delta, or drain capture) could
/// not be taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The shard's worker is gone (it panicked or the engine is shutting
    /// down), so its sessions cannot be captured.
    ShardUnavailable {
        /// Index of the unresponsive shard.
        shard: usize,
    },
    /// A delta was requested before any [`crate::FleetEngine::checkpoint`]
    /// armed delta tracking — there is no base for the delta to extend.
    NoCheckpoint,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable; cannot capture its sessions")
            }
            SnapshotError::NoCheckpoint => {
                write!(f, "no checkpoint taken yet; a delta has no base to extend")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Smallest possible encoded [`SessionRecord`] (empty pending, whose state
/// blob length would still be >= 0); bounding record counts by it caps
/// decoder allocations at the actual input size. Shared with the delta
/// codec ([`crate::delta`]), which embeds the same record layout.
pub(crate) const MIN_RECORD_LEN: usize = 25;

/// Appends one session record in the shared TADF/TADD record layout.
pub(crate) fn encode_record(rec: &SessionRecord, payload: &mut BytesMut) {
    payload.put_u64_le(rec.id);
    payload.put_u64_le(rec.idle_micros);
    payload.put_u8(rec.ending as u8);
    payload.put_u32_le(rec.pending.len() as u32);
    for &seg in &rec.pending {
        payload.put_u32_le(seg);
    }
    let state = state_to_bytes(&rec.state);
    payload.put_u32_le(state.len() as u32);
    payload.put_slice(&state);
}

/// Decodes one session record in the shared TADF/TADD record layout;
/// `index` is the record's position in its list, carried into
/// [`SnapshotCodecError::BadSession`] for diagnostics.
pub(crate) fn decode_record(
    r: &mut Reader,
    index: usize,
) -> Result<SessionRecord, SnapshotCodecError> {
    let id = r.u64("record header")?;
    let idle_micros = r.u64("record header")?;
    let ending = r.flag("ending flag")?;
    let pending = r.seq(4, "pending segments", |r, _| r.u32("pending segments"))?;
    let state = state_from_bytes(r.blob("state blob")?.into())
        .map_err(|source| SnapshotCodecError::BadSession { index, source })?;
    Ok(SessionRecord { id, state, pending, ending, idle_micros })
}

/// Serialises a fleet image (the persistent artifact of a warm restart).
pub fn image_to_bytes(image: &FleetImage) -> Bytes {
    let mut payload = BytesMut::with_capacity(64 + image.sessions.len() * 256);
    payload.put_u32_le(image.num_shards);
    payload.put_u32_le(image.sessions.len() as u32);
    for rec in &image.sessions {
        encode_record(rec, &mut payload);
    }

    seal_envelope(MAGIC, VERSION, payload.freeze())
}

/// Restores a fleet image serialized by [`image_to_bytes`]. The whole
/// input must be one snapshot (trailing bytes are rejected); decoding
/// never panics, whatever the input.
pub fn image_from_bytes(bytes: Bytes) -> Result<FleetImage, SnapshotCodecError> {
    let payload = envelope_payload(MAGIC, VERSION, &bytes)?;
    let mut r = Reader::new(payload);
    let num_shards = r.u32("shard count")?;
    let sessions = r.seq(MIN_RECORD_LEN, "session records", decode_record)?;
    r.finish()?;
    Ok(FleetImage { num_shards, sessions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_codec::checksum64;

    fn record(id: TripId, idle_micros: u64) -> SessionRecord {
        SessionRecord {
            id,
            state: ScorerState::from_parts(vec![0.25, -1.5, 3.0], 1.25, 2.5, -0.75, Some(4), 2, 1),
            pending: vec![7, 9],
            ending: false,
            idle_micros,
        }
    }

    fn image(n: usize) -> FleetImage {
        FleetImage {
            num_shards: 3,
            sessions: (0..n).map(|i| record(i as TripId, (n - i) as u64 * 1000)).collect(),
        }
    }

    #[test]
    fn image_roundtrips_exactly() {
        for n in [0, 1, 5] {
            let img = image(n);
            let blob = image_to_bytes(&img);
            let restored = image_from_bytes(blob.clone()).expect("decode");
            assert_eq!(restored, img);
            // Canonical encoding: re-encoding is byte-for-byte identical.
            assert_eq!(image_to_bytes(&restored).to_vec(), blob.to_vec());
        }
    }

    #[test]
    fn merge_and_partition_are_inverse_up_to_order() {
        let a = FleetImage { num_shards: 2, sessions: vec![record(0, 10), record(2, 30)] };
        let b = FleetImage { num_shards: 3, sessions: vec![record(1, 20), record(5, 50)] };
        let merged = FleetImage::merge([a.clone(), b.clone()]);
        assert_eq!(merged.num_shards, 5);
        assert_eq!(merged.sessions.len(), 4);
        // Route even ids to part 0, odd to part 1: partitioning preserves
        // relative order within each part and loses no session.
        let parts = merged.clone().partition_by(2, |id| (id % 2) as usize);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].sessions, vec![record(0, 10), record(2, 30)]);
        assert_eq!(parts[1].sessions, vec![record(1, 20), record(5, 50)]);
        assert!(parts.iter().all(|p| p.num_shards == merged.num_shards));
        // Empty input merges to the inert image.
        let empty = FleetImage::merge([]);
        assert_eq!(empty.num_shards, 1);
        assert!(empty.sessions.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn partition_into_zero_parts_is_a_caller_bug() {
        let _ = image(1).partition_by(0, |_| 0);
    }

    #[test]
    fn image_decode_rejects_corruption_without_panicking() {
        let blob = image_to_bytes(&image(3)).to_vec();

        let mut raw = blob.clone();
        raw[0] ^= 0xFF;
        assert_eq!(image_from_bytes(Bytes::from(raw)), Err(SnapshotCodecError::BadMagic));

        let mut raw = blob.clone();
        raw[4] = 0x7F;
        assert!(matches!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::BadVersion(_))
        ));

        for cut in 0..blob.len() {
            assert!(image_from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(), "cut={cut}");
        }

        for byte in 6..blob.len() {
            let mut raw = blob.clone();
            raw[byte] ^= 1;
            assert!(image_from_bytes(Bytes::from(raw)).is_err(), "byte={byte}");
        }

        let mut raw = blob.clone();
        raw.push(0);
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn huge_crafted_lengths_error_instead_of_panicking() {
        // A payload length near u64::MAX must not wrap the bounds guard.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Truncated("payload"))
        );
        // Same for an absurd session count inside a checksummed payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // num_shards
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&checksum64(&payload).to_le_bytes());
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Truncated("session records"))
        );
    }

    #[test]
    fn an_image_of_version_1_sessions_is_refused_typed() {
        // A session blob of version 1 (the per-segment trace where version
        // 2 has a count), sealed, inside an otherwise valid image.
        let mut state = BytesMut::new();
        state.put_u32_le(1);
        state.put_f32_le(0.5);
        [1.0f64, 2.0, 3.0].iter().for_each(|&x| state.put_f64_le(x));
        state.put_u8(0);
        state.put_u8(0);
        state.put_u32_le(1);
        state.put_u32_le(4);
        state.put_f64_le(0.5);
        state.put_f64_le(0.1);
        let state = seal_envelope(b"TADC", 1, state.freeze());
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_u32_le(1);
        payload.put_u64_le(7);
        payload.put_u64_le(0);
        payload.put_u8(0);
        payload.put_u32_le(0);
        payload.put_u32_le(state.len() as u32);
        payload.put_slice(&state);
        assert_eq!(
            image_from_bytes(seal_envelope(MAGIC, VERSION, payload.freeze())),
            Err(SnapshotCodecError::BadSession {
                index: 0,
                source: StateCodecError::BadVersion(1)
            })
        );
    }

    #[test]
    fn an_image_of_version_2_sessions_is_refused_typed() {
        // A session blob of version 2 (the hidden row as f32s where
        // version 3 has bf16), sealed, inside an otherwise valid image.
        let mut state = BytesMut::new();
        state.put_u32_le(2);
        state.put_f32_le(0.5);
        state.put_f32_le(-1.25);
        [1.0f64, 2.0, 3.0].iter().for_each(|&x| state.put_f64_le(x));
        state.put_u8(1);
        state.put_u32_le(4);
        state.put_u8(0);
        state.put_u32_le(1);
        let state = seal_envelope(b"TADC", 2, state.freeze());
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_u32_le(1);
        payload.put_u64_le(7);
        payload.put_u64_le(0);
        payload.put_u8(0);
        payload.put_u32_le(0);
        payload.put_u32_le(state.len() as u32);
        payload.put_slice(&state);
        assert_eq!(
            image_from_bytes(seal_envelope(MAGIC, VERSION, payload.freeze())),
            Err(SnapshotCodecError::BadSession {
                index: 0,
                source: StateCodecError::BadVersion(2)
            })
        );
    }

    #[test]
    fn embedded_state_errors_carry_their_index() {
        let img = image(2);
        let blob = image_to_bytes(&img).to_vec();
        // Corrupt the second record's embedded state magic, then re-seal
        // the envelope checksum so only the nested decode fails.
        let needle = b"TADC";
        let positions: Vec<usize> =
            (0..blob.len() - 3).filter(|&i| &blob[i..i + 4] == needle).collect();
        assert_eq!(positions.len(), 2);
        let mut raw = blob;
        raw[positions[1]] ^= 0xFF;
        let payload_start = 14;
        let payload_end = raw.len() - 8;
        let fixed = checksum64(&raw[payload_start..payload_end]);
        raw.splice(payload_end.., fixed.to_le_bytes());
        match image_from_bytes(Bytes::from(raw)) {
            Err(SnapshotCodecError::BadSession { index: 1, source: StateCodecError::BadMagic }) => {
            }
            other => panic!("expected BadSession at index 1, got {other:?}"),
        }
    }
}
