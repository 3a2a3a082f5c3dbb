//! Incremental fleet snapshots: a log-structured delta layer over the
//! full-image [`crate::FleetImage`] codec, so checkpoint cost scales with
//! **churn** (sessions touched since the last capture) rather than fleet
//! size.
//!
//! A chain starts from a **checkpoint** — a full [`FleetImage`] stamped
//! with an epoch by [`crate::FleetEngine::checkpoint`] — and grows by
//! [`FleetDelta`]s captured with [`crate::FleetEngine::delta`]: the
//! sessions dirtied since the previous capture (per-session dirty bits in
//! the session store) plus the ids removed since then (tombstones).
//! [`DeltaBase`] replays a chain back into the equivalent full image. It
//! admits only the next delta of its chain — the base's epoch and
//! `seq = applied + 1` — so a skipped, repeated, or cross-epoch delta is a
//! typed [`DeltaChainError`], never a silently wrong reconstruction.
//!
//! The binary format is one checksummed [`tad_codec::envelope`] (magic
//! `TADD`) whose payload is the base epoch, sequence number, shard count,
//! the tombstoned trip ids, and the dirty sessions in the same record
//! layout as the `TADF` image codec. Decoding hostile bytes returns a
//! typed [`SnapshotCodecError`]; no input can panic the decoder.
//!
//! A restore from a reconstructed image is **score-bit-identical** to a
//! restore from a full image taken at the same quiesce point: dirty
//! tracking over-approximates (a touched-but-unchanged session is
//! re-recorded, never skipped), and tombstones are replayed before
//! upserts so a remove-then-restart of the same trip id lands in the
//! rebuilt image exactly once, with its newest state.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use tad_codec::{open_envelope, seal_envelope, Reader};

use crate::event::TripId;
use crate::snapshot::{
    decode_record, encode_record, FleetImage, SessionRecord, SnapshotCodecError, MIN_RECORD_LEN,
};

const MAGIC: &[u8; 4] = b"TADD";
const VERSION: u16 = 1;

/// One increment of a delta-snapshot chain: everything that changed in a
/// fleet engine since the previous capture of the same chain.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetDelta {
    /// Epoch of the checkpoint image this delta extends.
    pub base_epoch: u64,
    /// 1-based position in the epoch's delta log.
    pub seq: u64,
    /// Shard count of the engine that captured the delta (informational,
    /// like [`FleetImage::num_shards`]).
    pub num_shards: u32,
    /// Trips whose sessions left the store since the previous capture
    /// (completed, evicted, or drained). Replayed before `sessions`, so a
    /// trip that ended and restarted within one interval survives as its
    /// new session.
    pub removed: Vec<TripId>,
    /// Sessions dirtied since the previous capture, oldest first. An id
    /// already present in the base is replaced; a new id is appended.
    pub sessions: Vec<SessionRecord>,
}

/// Why [`DeltaBase::apply`] rejected a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaChainError {
    /// The delta extends a different base image than the one held.
    BaseMismatch {
        /// Epoch of the base image the chain holds.
        expected_epoch: u64,
        /// Epoch the delta was captured against.
        found_epoch: u64,
    },
    /// The delta is not the next one in the log (skipped, repeated, or
    /// out of order).
    OutOfOrder {
        /// The sequence number the chain will accept next.
        expected_seq: u64,
        /// The sequence number the delta carries.
        found_seq: u64,
    },
}

impl std::fmt::Display for DeltaChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaChainError::BaseMismatch { expected_epoch, found_epoch } => write!(
                f,
                "delta extends base epoch {found_epoch}, but the chain holds epoch \
                 {expected_epoch}"
            ),
            DeltaChainError::OutOfOrder { expected_seq, found_seq } => {
                write!(f, "delta seq {found_seq} out of order; the chain expects {expected_seq}")
            }
        }
    }
}

impl std::error::Error for DeltaChainError {}

/// Serialises a fleet delta (the incremental artifact of a checkpoint
/// chain).
pub fn delta_to_bytes(delta: &FleetDelta) -> Bytes {
    let mut payload =
        BytesMut::with_capacity(64 + delta.removed.len() * 8 + delta.sessions.len() * 256);
    payload.put_u64_le(delta.base_epoch);
    payload.put_u64_le(delta.seq);
    payload.put_u32_le(delta.num_shards);
    payload.put_u32_le(delta.removed.len() as u32);
    for &id in &delta.removed {
        payload.put_u64_le(id);
    }
    payload.put_u32_le(delta.sessions.len() as u32);
    for rec in &delta.sessions {
        encode_record(rec, &mut payload);
    }
    seal_envelope(MAGIC, VERSION, payload.freeze())
}

/// Restores a fleet delta serialized by [`delta_to_bytes`]. The whole
/// input must be one delta (trailing bytes are rejected); decoding never
/// panics, whatever the input.
pub fn delta_from_bytes(bytes: Bytes) -> Result<FleetDelta, SnapshotCodecError> {
    let payload = open_envelope(MAGIC, VERSION, bytes)?;
    let mut r = Reader::new(&payload);
    let base_epoch = r.u64("delta header")?;
    let seq = r.u64("delta header")?;
    let num_shards = r.u32("delta header")?;
    let removed = r.seq(8, "tombstones", |r, _| r.u64("tombstones"))?;
    let sessions = r.seq(MIN_RECORD_LEN, "session records", decode_record)?;
    r.finish()?;
    Ok(FleetDelta { base_epoch, seq, num_shards, removed, sessions })
}

/// A checkpoint image plus the deltas applied onto it so far — the
/// restore side of a delta-snapshot chain. Feed it the chain in capture
/// order and [`DeltaBase::into_image`] yields the image a full snapshot
/// taken at the last delta's quiesce point would have produced (modulo
/// the idle clocks of untouched sessions, which a full capture would have
/// re-aged).
#[derive(Clone, Debug)]
pub struct DeltaBase {
    image: FleetImage,
    epoch: u64,
    applied: u64,
}

impl DeltaBase {
    /// Starts a chain from the checkpoint `image` stamped with `epoch`
    /// (both come from [`crate::FleetEngine::checkpoint`]); the first
    /// admissible delta is `seq == 1`.
    pub fn new(image: FleetImage, epoch: u64) -> Self {
        DeltaBase { image, epoch, applied: 0 }
    }

    /// How many deltas have been applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The current reconstruction.
    pub fn image(&self) -> &FleetImage {
        &self.image
    }

    /// Consumes the chain, returning the reconstructed image.
    pub fn into_image(self) -> FleetImage {
        self.image
    }

    /// Applies the next delta of the chain: tombstones first, then
    /// upserts (replace an existing id in place, append a new one).
    ///
    /// # Errors
    /// [`DeltaChainError::BaseMismatch`] when `delta` names another epoch,
    /// [`DeltaChainError::OutOfOrder`] when it is not the next sequence
    /// number (skipped, repeated or reordered); the reconstruction is
    /// unchanged on error.
    pub fn apply(&mut self, delta: &FleetDelta) -> Result<(), DeltaChainError> {
        if delta.base_epoch != self.epoch {
            return Err(DeltaChainError::BaseMismatch {
                expected_epoch: self.epoch,
                found_epoch: delta.base_epoch,
            });
        }
        let expected_seq = self.applied + 1;
        if delta.seq != expected_seq {
            return Err(DeltaChainError::OutOfOrder { expected_seq, found_seq: delta.seq });
        }
        self.applied = expected_seq;
        if !delta.removed.is_empty() {
            let gone: std::collections::HashSet<TripId> = delta.removed.iter().copied().collect();
            self.image.sessions.retain(|rec| !gone.contains(&rec.id));
        }
        let mut index: HashMap<TripId, usize> =
            self.image.sessions.iter().enumerate().map(|(i, rec)| (rec.id, i)).collect();
        for rec in &delta.sessions {
            match index.get(&rec.id) {
                Some(&i) => self.image.sessions[i] = rec.clone(),
                None => {
                    index.insert(rec.id, self.image.sessions.len());
                    self.image.sessions.push(rec.clone());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaltad::ScorerState;

    fn record(id: TripId, tag: f32) -> SessionRecord {
        SessionRecord {
            id,
            state: ScorerState::from_parts(vec![tag], 0.0, 0.0, 0.0, None, 0, Vec::new()),
            pending: Vec::new(),
            ending: false,
            idle_micros: 0,
        }
    }

    fn ids(base: &DeltaBase) -> Vec<TripId> {
        base.image().sessions.iter().map(|rec| rec.id).collect()
    }

    #[test]
    fn delta_roundtrips_exactly() {
        for (removed, n) in [(vec![], 0usize), (vec![3, 9], 2), (vec![1], 0)] {
            let delta = FleetDelta {
                base_epoch: 4,
                seq: 2,
                num_shards: 3,
                removed,
                sessions: (0..n).map(|i| record(i as TripId, i as f32)).collect(),
            };
            let blob = delta_to_bytes(&delta);
            let decoded = delta_from_bytes(blob.clone()).expect("decode");
            assert_eq!(decoded, delta);
            // Canonical encoding: re-encoding is byte-for-byte identical.
            assert_eq!(delta_to_bytes(&decoded).to_vec(), blob.to_vec());
        }
    }

    #[test]
    fn apply_replays_tombstones_then_upserts_in_order() {
        let base_image = FleetImage {
            num_shards: 2,
            sessions: vec![record(1, 1.0), record(2, 2.0), record(3, 3.0)],
        };
        let mut base = DeltaBase::new(base_image, 5);
        // Delta 1: trip 2 left, trip 3 changed, trip 4 is new.
        base.apply(&FleetDelta {
            base_epoch: 5,
            seq: 1,
            num_shards: 2,
            removed: vec![2],
            sessions: vec![record(3, 3.5), record(4, 4.0)],
        })
        .unwrap();
        assert_eq!(ids(&base), vec![1, 3, 4]);
        assert_eq!(base.image().sessions[1], record(3, 3.5));
        // Delta 2: trip 3 ended and restarted within the interval — the
        // tombstone lands first, so the reborn session survives.
        base.apply(&FleetDelta {
            base_epoch: 5,
            seq: 2,
            num_shards: 2,
            removed: vec![3],
            sessions: vec![record(3, 3.9)],
        })
        .unwrap();
        assert_eq!(base.applied(), 2);
        assert_eq!(ids(&base), vec![1, 4, 3]);
        assert_eq!(base.image().sessions[2], record(3, 3.9));
    }

    #[test]
    fn out_of_order_and_cross_epoch_deltas_are_rejected_typed() {
        let mut base = DeltaBase::new(FleetImage::default(), 9);
        let d1 = FleetDelta { base_epoch: 9, seq: 1, ..FleetDelta::default() };
        let d2 = FleetDelta { base_epoch: 9, seq: 2, ..FleetDelta::default() };
        // Skipping ahead, wrong epoch, then replaying an already-applied
        // delta: all typed, none mutate the reconstruction.
        assert_eq!(
            base.apply(&d2),
            Err(DeltaChainError::OutOfOrder { expected_seq: 1, found_seq: 2 })
        );
        assert_eq!(
            base.apply(&FleetDelta { base_epoch: 8, seq: 1, ..FleetDelta::default() }),
            Err(DeltaChainError::BaseMismatch { expected_epoch: 9, found_epoch: 8 })
        );
        base.apply(&d1).unwrap();
        assert_eq!(
            base.apply(&d1),
            Err(DeltaChainError::OutOfOrder { expected_seq: 2, found_seq: 1 })
        );
        base.apply(&d2).unwrap();
        assert_eq!(base.applied(), 2);
    }

    #[test]
    fn chain_admits_only_consecutive_same_epoch_deltas() {
        let delta = |base_epoch, seq, tag| FleetDelta {
            base_epoch,
            seq,
            num_shards: 1,
            removed: Vec::new(),
            sessions: vec![record(1, tag)],
        };
        let mut base = DeltaBase::new(FleetImage::default(), 7);
        assert_eq!((base.epoch, base.applied()), (7, 0));
        base.apply(&delta(7, 1, 1.0)).unwrap();
        base.apply(&delta(7, 2, 2.0)).unwrap();
        assert_eq!(base.applied(), 2);
        // Repeats, skips, and regressions are all typed rejections that
        // leave the chain and the reconstruction where they were.
        for bad in [0, 2, 4] {
            assert_eq!(
                base.apply(&delta(7, bad, -1.0)),
                Err(DeltaChainError::OutOfOrder { expected_seq: 3, found_seq: bad })
            );
        }
        assert_eq!(
            base.apply(&delta(8, 3, -1.0)),
            Err(DeltaChainError::BaseMismatch { expected_epoch: 7, found_epoch: 8 })
        );
        assert_eq!(base.applied(), 2);
        assert_eq!(base.image().sessions, vec![record(1, 2.0)]);
        base.apply(&delta(7, 3, 3.0)).unwrap();
        assert_eq!(base.applied(), 3);
        assert_eq!(base.image().sessions, vec![record(1, 3.0)]);
    }
}
