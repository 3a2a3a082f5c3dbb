//! Ingest sanitization policies: per-session stream hygiene applied
//! strictly **in front of** the bit-exact scoring path.
//!
//! Real telemetry is hostile — GPS noise duplicates segments, transport
//! retries reorder them, dead zones open mid-trip gaps, and map-matching
//! glitches teleport a trip across the network. [`StreamPolicy`] decides
//! what of that reaches the scorer:
//!
//! 1. **Dedup window** — an incoming segment equal to one of the last
//!    `dedup_window` *admitted* segments of its trip is dropped
//!    (`serve.dedup_dropped`).
//! 2. **Reorder buffer** — a segment that does not chain onto the trip's
//!    admission tail (it is not a road-graph successor) is held in a
//!    bounded per-session buffer; every admission re-checks the held
//!    segments and admits any that now chain (`serve.reordered`). The
//!    buffer is flushed in arrival order at `TripEnd`
//!    (`serve.reorder_flushed`).
//! 3. **Gap policy** — a segment that can be neither admitted nor held is
//!    an off-network jump: [`GapPolicy::ScoreThrough`] admits it anyway
//!    (the scorer charges the off-graph penalty, exactly today's
//!    behaviour; `serve.gap_score_through`), while [`GapPolicy::Reset`]
//!    first scores everything queued ahead, then forgets the Markov
//!    predecessor ([`causaltad::ScorerState::reset_context`]) so the jump
//!    target opens a fresh leg (`serve.trip_resets`).
//! 4. **Quarantine** — malformed events (duplicate `TripStart`, events for
//!    unknown trips, out-of-vocabulary segments, invalid SD pairs) were
//!    always rejected; they are now also *classified* and surfaced through
//!    the [`PolicyCallback`] and `serve.quarantined` so front-ends can
//!    answer the producer with a typed reply instead of a silent drop.
//!
//! The policies run inside the shard worker at the admission point shared
//! by every ingest path (in-process, `tad-net`, `tad-router`), and every
//! path preserves per-trip arrival order — so the same corrupted stream
//! sanitizes identically everywhere, and routed ingest stays bit-identical
//! to direct ingest under any policy configuration. With the default
//! (all-off) policy the admission code path is byte-identical to the
//! pre-policy engine.

use std::sync::Arc;

use crate::event::TripId;

/// How to score a segment that is not a road-graph successor of the
/// trip's admission tail and cannot be repaired by the reorder buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GapPolicy {
    /// Admit the jump as-is; the scorer charges the off-graph penalty
    /// ([`causaltad::OFF_GRAPH_NLL`]) exactly as an unpoliced engine
    /// would. The default.
    #[default]
    ScoreThrough,
    /// Score everything queued ahead, then forget the Markov predecessor
    /// ([`causaltad::ScorerState::reset_context`]) so the jump target is
    /// charged like a trip-opening segment and the trip continues as a
    /// fresh leg. Accumulated scores and the decoder hidden state are
    /// kept.
    Reset,
}

/// Per-session stream sanitization configuration. The default is
/// **everything off**: the engine's scoring path is then byte-identical
/// to an engine without a policy layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamPolicy {
    /// Drop a segment equal to one of the last `dedup_window` admitted
    /// segments of its trip. `0` disables deduplication.
    pub dedup_window: usize,
    /// Hold up to `reorder_window` non-chaining segments per session and
    /// re-admit them once the stream catches up. `0` disables reordering
    /// repair (every non-successor is handled by the gap policy
    /// immediately).
    pub reorder_window: usize,
    /// What to do with an off-network jump that cannot be held.
    pub gap: GapPolicy,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        StreamPolicy { dedup_window: 0, reorder_window: 0, gap: GapPolicy::ScoreThrough }
    }
}

impl StreamPolicy {
    /// True when every transform is disabled — the engine then takes the
    /// exact pre-policy admission path.
    pub fn is_off(&self) -> bool {
        self.dedup_window == 0 && self.reorder_window == 0 && self.gap == GapPolicy::ScoreThrough
    }
}

/// What the sanitization layer did to one event of one trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyAction {
    /// A segment equal to a recently admitted one was dropped.
    DedupDropped,
    /// A held segment was re-admitted once the stream caught up.
    Reordered,
    /// A held segment was flushed (in arrival order) by `TripEnd`.
    ReorderFlushed,
    /// An off-network jump was admitted and charged the off-graph penalty.
    GapScoredThrough,
    /// An off-network jump reset the trip's Markov context; the jump
    /// target opened a fresh leg.
    TripReset,
    /// A `TripStart` arrived for a trip that is already live.
    QuarantinedDuplicateStart,
    /// A segment or `TripEnd` arrived for a trip with no live session.
    QuarantinedUnknownTrip,
    /// A segment id outside the model's vocabulary.
    QuarantinedOutOfVocab,
    /// A `TripStart` whose SD pair the model rejected.
    QuarantinedBadStart,
}

impl PolicyAction {
    /// Stable single-byte encoding for wire protocols (`tad-net`'s
    /// `PolicyNotice` frame). The inverse is
    /// [`PolicyAction::from_wire_byte`].
    pub fn wire_byte(self) -> u8 {
        match self {
            PolicyAction::DedupDropped => 0,
            PolicyAction::Reordered => 1,
            PolicyAction::ReorderFlushed => 2,
            PolicyAction::GapScoredThrough => 3,
            PolicyAction::TripReset => 4,
            PolicyAction::QuarantinedDuplicateStart => 5,
            PolicyAction::QuarantinedUnknownTrip => 6,
            PolicyAction::QuarantinedOutOfVocab => 7,
            PolicyAction::QuarantinedBadStart => 8,
        }
    }

    /// Decodes [`PolicyAction::wire_byte`]; `None` for unknown bytes.
    pub fn from_wire_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => PolicyAction::DedupDropped,
            1 => PolicyAction::Reordered,
            2 => PolicyAction::ReorderFlushed,
            3 => PolicyAction::GapScoredThrough,
            4 => PolicyAction::TripReset,
            5 => PolicyAction::QuarantinedDuplicateStart,
            6 => PolicyAction::QuarantinedUnknownTrip,
            7 => PolicyAction::QuarantinedOutOfVocab,
            8 => PolicyAction::QuarantinedBadStart,
            _ => return None,
        })
    }
}

/// One sanitization outcome, delivered to the engine's
/// [`PolicyCallback`] from the shard worker that applied it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyOutcome {
    /// The trip the event belonged to.
    pub id: TripId,
    /// The segment involved, when the action concerns one.
    pub seg: Option<u32>,
    /// What the layer did.
    pub action: PolicyAction,
}

/// Callback invoked by shard workers with every sanitization outcome —
/// transforms fire only when the corresponding policy is enabled;
/// quarantine classifications fire whenever a malformed event is
/// rejected. Must be cheap or hand off to a channel — it runs on the
/// scoring threads.
pub type PolicyCallback = Arc<dyn Fn(&PolicyOutcome) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_off() {
        assert!(StreamPolicy::default().is_off());
        assert!(!StreamPolicy { dedup_window: 4, ..StreamPolicy::default() }.is_off());
        assert!(!StreamPolicy { reorder_window: 2, ..StreamPolicy::default() }.is_off());
        assert!(!StreamPolicy { gap: GapPolicy::Reset, ..StreamPolicy::default() }.is_off());
    }

    #[test]
    fn wire_bytes_round_trip() {
        let all = [
            PolicyAction::DedupDropped,
            PolicyAction::Reordered,
            PolicyAction::ReorderFlushed,
            PolicyAction::GapScoredThrough,
            PolicyAction::TripReset,
            PolicyAction::QuarantinedDuplicateStart,
            PolicyAction::QuarantinedUnknownTrip,
            PolicyAction::QuarantinedOutOfVocab,
            PolicyAction::QuarantinedBadStart,
        ];
        for action in all {
            assert_eq!(PolicyAction::from_wire_byte(action.wire_byte()), Some(action));
        }
        assert_eq!(PolicyAction::from_wire_byte(200), None);
    }
}
