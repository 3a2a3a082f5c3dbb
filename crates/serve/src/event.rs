//! The ingest event model: what the outside world sends the engine and
//! what the engine reports back when a trip leaves it.

/// Unique identifier of an in-flight trip (e.g. the ride-hailing order id).
pub type TripId = u64;

/// One element of the interleaved fleet telemetry stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A new trip: the SD pair and departure slot are known at order time.
    TripStart {
        /// The new trip's id (the shard-routing key).
        id: TripId,
        /// Source road segment.
        source: u32,
        /// Destination road segment.
        dest: u32,
        /// Departure time slot.
        time_slot: u8,
    },
    /// The trip traversed one more road segment.
    Segment {
        /// The trip that moved.
        id: TripId,
        /// The road segment it traversed.
        seg: u32,
    },
    /// The trip finished; its final score should be delivered.
    TripEnd {
        /// The trip that finished.
        id: TripId,
    },
}

impl Event {
    /// The trip this event belongs to (the shard-routing key).
    pub fn trip_id(&self) -> TripId {
        match *self {
            Event::TripStart { id, .. } | Event::Segment { id, .. } | Event::TripEnd { id } => id,
        }
    }
}

/// Why a trip left the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// A `TripEnd` event arrived — either on this engine, or before a
    /// fleet snapshot whose restore into this engine finalised the trip.
    Ended,
    /// The trip went silent for longer than the session TTL. Idle ages
    /// persist through snapshot/restore, so a restored trip's TTL clock
    /// continues where the captured engine left off.
    EvictedTtl,
    /// The shard hit its session cap and this was the least recently
    /// active trip.
    EvictedLru,
    /// The engine shut down while the trip was still live. On a planned
    /// restart, capture a [`crate::FleetImage`] first — sessions flushed
    /// here are gone, restored ones resume score-exactly.
    Shutdown,
}

/// One per-segment score delivery, handed to the engine's `on_score`
/// callback right after the micro-batched model step that consumed the
/// segment. This is the paper's *online* detection surface: the debiased
/// anomaly score (Eq. 10) updated per observed road segment, pushed to the
/// outside world (e.g. `tad-net` streams these to the connection that owns
/// the trip) instead of waiting for the trip to end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreUpdate {
    /// The trip this score belongs to.
    pub id: TripId,
    /// 0-based index of the scored segment within the trip (how many
    /// segments the session has consumed, minus one).
    pub seq: u32,
    /// The road segment that was just consumed.
    pub segment: u32,
    /// Debiased anomaly score (Eq. 10) after this segment; higher = more
    /// anomalous.
    pub score: f64,
    /// This segment's likelihood contribution `-log P(t_i | c, t_<i)`.
    pub nll: f64,
    /// This segment's debiasing contribution `log E[1/P(t_i|e_i)]`.
    pub log_scale: f64,
}

/// Final scoring result for a trip, delivered to the completion callback.
#[derive(Clone, Debug)]
pub struct TripOutcome {
    /// The finished trip.
    pub id: TripId,
    /// Why the trip left the engine.
    pub completion: Completion,
    /// Debiased anomaly score (Eq. 10) after the last consumed segment.
    pub score: f64,
    /// The un-debiased likelihood part of the score.
    pub likelihood_nll: f64,
    /// Accumulated scaling sum `Σ_i log E[1/P(t_i|e_i)]`.
    pub scale_log_sum: f64,
    /// Number of segments consumed. What each contributed went out with
    /// its [`ScoreUpdate`](crate::ScoreUpdate).
    pub segments: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_id_extracts_routing_key() {
        assert_eq!(Event::TripStart { id: 7, source: 0, dest: 1, time_slot: 0 }.trip_id(), 7);
        assert_eq!(Event::Segment { id: 8, seg: 3 }.trip_id(), 8);
        assert_eq!(Event::TripEnd { id: 9 }.trip_id(), 9);
    }
}
