//! One backend link's bounded recovery journal: the image of its last
//! completed checkpoint plus every ingest frame forwarded since the
//! checkpoint cut — what a standby is restored from when the link dies.
//! Pure bookkeeping: the router loop decides *when* to record, cut and
//! apply (in the same step that queues the frame on the link, so a cut is
//! an exact wire position); this module decides what the journal is worth
//! afterwards.

use std::mem;

use bytes::Bytes;
use tad_net::Request;
use tad_serve::{delta_from_bytes, DeltaBase, FleetImage};

/// The recovery base a dead backend would be restored from: the image of
/// its last completed checkpoint, kept either verbatim or as a delta
/// chain folded down eagerly (a [`DeltaBase`] *is* the folded image plus
/// chain bookkeeping, so promotion never replays deltas — it is always
/// install-image-then-replay-tail).
pub(crate) enum RecoveryBase {
    /// A plain image; the backend-side delta chain (if any) is not yet
    /// linked to it.
    Plain(FleetImage),
    /// An image tracking the backend's delta chain: `TADD` increments
    /// apply directly.
    Chained(DeltaBase),
}

impl RecoveryBase {
    pub(crate) fn image(&self) -> &FleetImage {
        match self {
            RecoveryBase::Plain(image) => image,
            RecoveryBase::Chained(base) => base.image(),
        }
    }

    /// Folds one `TADD` blob into the base. A `Plain` base adopts the
    /// chain lazily when the first increment (`seq == 1`) arrives —
    /// that is how the router learns the epoch the backend armed at the
    /// full capture that produced this base.
    fn apply_delta(&mut self, blob: Bytes) -> Result<(), String> {
        let delta = delta_from_bytes(blob).map_err(|e| format!("undecodable delta: {e}"))?;
        match self {
            RecoveryBase::Chained(base) => {
                base.apply(&delta).map_err(|e| format!("delta chain broken: {e}"))
            }
            RecoveryBase::Plain(image) => {
                if delta.seq != 1 {
                    return Err(format!(
                        "delta seq {} does not start a fresh chain over a plain base",
                        delta.seq
                    ));
                }
                let mut base = DeltaBase::new(mem::take(image), delta.base_epoch);
                base.apply(&delta).map_err(|e| format!("delta chain broken: {e}"))?;
                *self = RecoveryBase::Chained(base);
                Ok(())
            }
        }
    }
}

/// One link's bounded recovery journal: the checkpoint base plus every
/// ingest frame forwarded since the checkpoint cut. `base + frames`
/// replayed onto a fresh backend reproduces the dead backend's state and
/// score stream bit-identically — *if* `tail_ok` (the tail is complete:
/// no overflow, no poisoned frame since the base was taken).
pub(crate) struct Journal {
    pub(crate) base: RecoveryBase,
    pub(crate) frames: Vec<Request>,
    /// True when `base + frames` is a faithful reconstruction.
    tail_ok: bool,
    /// True while forwarded ingest frames are being appended. Cleared on
    /// overflow/poison; re-set by the next checkpoint cut.
    recording: bool,
    /// Frame count at the moment the in-flight capture frame hit the
    /// wire: everything before it is covered by the capture reply and is
    /// dropped when the reply applies.
    pending_cut: Option<usize>,
    /// True when the backend's delta chain provably continues this base,
    /// i.e. a `DeltaRequest` increment would apply cleanly. A front
    /// `SnapshotRequest` barrier re-arms the backend's chain at an epoch
    /// the router never sees, so staging one disarms the journal.
    pub(crate) armed: bool,
    /// Bumped whenever something invalidates the chain linkage
    /// out-of-band (a front snapshot barrier); captures compare it
    /// across their stage→apply window so a full capture cannot re-arm
    /// over a chain that was re-based mid-flight.
    pub(crate) chain_breaks: u64,
    limit: usize,
}

impl Journal {
    pub(crate) fn new(limit: usize, enabled: bool) -> Self {
        Journal {
            // A fresh backend is an empty fleet: the empty image plus
            // everything ever forwarded is a faithful tail from frame 0.
            base: RecoveryBase::Plain(FleetImage::default()),
            frames: Vec::new(),
            tail_ok: enabled,
            recording: enabled,
            pending_cut: None,
            armed: false,
            chain_breaks: 0,
            limit,
        }
    }

    /// Appends one forwarded ingest frame; discards the journal instead
    /// of exceeding the cap.
    pub(crate) fn record(&mut self, req: &Request) {
        if !self.recording {
            return;
        }
        if self.frames.len() >= self.limit {
            self.frames = Vec::new();
            self.tail_ok = false;
            self.recording = false;
        } else {
            self.frames.push(req.clone());
        }
    }

    /// A journaled frame was queued on the link but refused by the
    /// backend engine (`Backpressure`): the tail now contains a frame
    /// that was never scored, so replaying it would diverge. Discard.
    pub(crate) fn poison(&mut self) {
        if self.recording || self.tail_ok {
            self.frames = Vec::new();
            self.tail_ok = false;
            self.recording = false;
        }
    }

    /// The capture frame was just queued on the link (same loop step, so
    /// nothing can slip between): remember the cut so the reply knows
    /// which prefix it covers, and restart recording if the journal had
    /// been discarded — the new base will cover everything up to this
    /// very cut.
    pub(crate) fn stage_cut(&mut self, enabled: bool) {
        if !self.tail_ok && enabled {
            self.frames.clear();
            self.recording = true;
        }
        self.pending_cut = Some(self.frames.len());
    }

    /// The in-flight capture failed; keep the journal as it was.
    pub(crate) fn abort_cut(&mut self) {
        self.pending_cut = None;
    }

    /// A full image reply applies: it covers everything before the cut.
    /// `breaks_at_stage` guards the re-arm — see [`Journal::chain_breaks`].
    pub(crate) fn apply_full(&mut self, image: FleetImage, breaks_at_stage: u64) {
        let cut = self.pending_cut.take().unwrap_or(0).min(self.frames.len());
        self.frames.drain(..cut);
        self.base = RecoveryBase::Plain(image);
        self.armed = breaks_at_stage == self.chain_breaks;
        self.tail_ok = self.recording;
    }

    /// A delta reply applies: fold it into the base, then drop the
    /// covered prefix exactly as a full capture would.
    pub(crate) fn apply_delta(&mut self, blob: Bytes) -> Result<(), String> {
        self.base.apply_delta(blob)?;
        let cut = self.pending_cut.take().unwrap_or(0).min(self.frames.len());
        self.frames.drain(..cut);
        self.tail_ok = self.recording;
        Ok(())
    }

    /// Whether `base + frames` can reproduce the backend right now.
    pub(crate) fn recoverable(&self) -> bool {
        self.tail_ok
    }

    /// A front snapshot barrier re-based the backend's delta chain out
    /// from under the router: the next capture must be a full image.
    pub(crate) fn break_chain(&mut self) {
        self.armed = false;
        self.chain_breaks += 1;
    }

    /// The backend's state was just replaced wholesale (an `Install`):
    /// the journal restarts from exactly that image.
    pub(crate) fn reset_to(&mut self, image: FleetImage, enabled: bool) {
        self.base = RecoveryBase::Plain(image);
        self.frames.clear();
        self.pending_cut = None;
        self.armed = false;
        self.chain_breaks += 1;
        self.recording = enabled;
        self.tail_ok = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_serve::{delta_to_bytes, FleetDelta};

    fn seg(seg: u32) -> Request {
        Request::Segment { id: 1, seg }
    }

    fn segs(journal: &Journal) -> Vec<u32> {
        journal
            .frames
            .iter()
            .map(|req| match req {
                Request::Segment { seg, .. } => *seg,
                other => panic!("only segments are journaled here: {other:?}"),
            })
            .collect()
    }

    /// An image told apart from the empty default by its shard count.
    fn image(num_shards: u32) -> FleetImage {
        FleetImage { num_shards, sessions: Vec::new() }
    }

    fn delta(base_epoch: u64, seq: u64) -> Bytes {
        delta_to_bytes(&FleetDelta { base_epoch, seq, ..FleetDelta::default() })
    }

    #[test]
    fn overflow_discards_the_tail_until_the_next_cut() {
        let mut j = Journal::new(2, true);
        j.record(&seg(0));
        j.record(&seg(1));
        assert!(j.recoverable());
        j.record(&seg(2));
        assert!(!j.recoverable(), "the frame past the cap discards the journal");
        assert!(j.frames.is_empty());
        j.record(&seg(3));
        assert!(j.frames.is_empty(), "a discarded journal records nothing");

        // The next capture restarts recording at its cut; only its reply
        // makes the journal recoverable again.
        j.stage_cut(true);
        j.record(&seg(4));
        assert!(!j.recoverable());
        j.apply_full(image(3), j.chain_breaks);
        assert!(j.recoverable());
        assert_eq!(segs(&j), [4]);
        assert_eq!(j.base.image().num_shards, 3);
    }

    #[test]
    fn poison_discards_and_a_disabled_journal_never_records() {
        let mut j = Journal::new(8, true);
        j.record(&seg(0));
        j.poison();
        assert!(!j.recoverable());
        assert!(j.frames.is_empty());
        j.record(&seg(1));
        assert!(j.frames.is_empty());

        let mut off = Journal::new(8, false);
        off.record(&seg(0));
        off.stage_cut(false);
        off.apply_full(image(1), off.chain_breaks);
        off.record(&seg(1));
        assert!(!off.recoverable() && off.frames.is_empty());
    }

    #[test]
    fn a_full_capture_drops_exactly_the_covered_prefix() {
        let mut j = Journal::new(8, true);
        j.record(&seg(0));
        j.record(&seg(1));
        j.stage_cut(true);
        j.record(&seg(2));
        j.apply_full(image(2), j.chain_breaks);
        assert_eq!(segs(&j), [2], "frames recorded after the cut are the new tail");
        assert!(j.recoverable() && j.armed);

        // An aborted capture leaves the journal as it was.
        j.stage_cut(true);
        j.record(&seg(3));
        j.abort_cut();
        assert_eq!(segs(&j), [2, 3]);
        assert_eq!(j.base.image().num_shards, 2);
    }

    #[test]
    fn a_chain_break_between_stage_and_apply_blocks_rearming() {
        let mut j = Journal::new(8, true);
        j.stage_cut(true);
        let at_stage = j.chain_breaks;
        j.break_chain();
        j.apply_full(image(1), at_stage);
        assert!(!j.armed, "the backend re-based its chain mid-capture");
        assert!(j.recoverable(), "the image itself is still a faithful base");

        j.stage_cut(true);
        j.apply_full(image(1), j.chain_breaks);
        assert!(j.armed);
    }

    #[test]
    fn deltas_chain_from_seq_one_over_a_plain_base() {
        let mut j = Journal::new(8, true);
        j.stage_cut(true);
        j.apply_full(image(1), j.chain_breaks);

        j.record(&seg(0));
        j.stage_cut(true);
        let refused = j.apply_delta(delta(7, 2));
        assert!(refused.expect_err("seq 2 cannot start a chain").contains("fresh chain"));
        assert!(matches!(j.base, RecoveryBase::Plain(_)));
        j.abort_cut();
        assert_eq!(segs(&j), [0], "a refused delta drops nothing");

        j.stage_cut(true);
        j.record(&seg(1));
        j.apply_delta(delta(7, 1)).expect("seq 1 adopts the chain");
        assert!(matches!(j.base, RecoveryBase::Chained(_)));
        assert_eq!(segs(&j), [1]);
        j.stage_cut(true);
        j.apply_delta(delta(7, 2)).expect("the chain continues");
        assert!(j.apply_delta(delta(7, 2)).is_err(), "a replayed increment is out of order");
        assert!(j.apply_delta(Bytes::from(b"junk".to_vec())).is_err());
    }

    #[test]
    fn reset_to_restarts_the_journal_from_the_installed_image() {
        let mut j = Journal::new(8, true);
        j.record(&seg(0));
        j.stage_cut(true);
        j.apply_full(image(1), j.chain_breaks);
        let breaks = j.chain_breaks;
        j.stage_cut(true);
        j.reset_to(image(5), true);
        assert_eq!(j.base.image().num_shards, 5);
        assert!(j.frames.is_empty() && j.recoverable() && !j.armed);
        assert_eq!(j.chain_breaks, breaks + 1, "an in-flight capture must not re-arm");
        j.apply_full(image(6), breaks);
        assert!(!j.armed);

        j.poison();
        j.reset_to(image(7), true);
        assert!(j.recoverable(), "an install makes a discarded journal faithful again");
        j.reset_to(image(8), false);
        assert!(!j.recoverable());
    }
}
