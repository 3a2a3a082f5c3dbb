//! The `TADN` wire format: every frame is one standard workspace envelope
//! ([`tad_codec::envelope`]) whose payload is a tag byte plus a
//! little-endian body.
//!
//! ```text
//! +-------+---------+-------------+----------------------+-----------+
//! | TADN  | version | payload len | tag + body           | FNV-1a 64 |
//! | 4 B   | u16 LE  | u64 LE      | len bytes            | u64 LE    |
//! +-------+---------+-------------+----------------------+-----------+
//! ```
//!
//! Request tags live in `0x01..=0x0F`, response tags in `0x10..=0x1F`, so
//! a peer can never confuse the two directions: decoding a response tag as
//! a request (or vice versa) is a typed [`FrameError::UnexpectedKind`].
//! Like every envelope codec in the workspace, decoding is **total** —
//! truncated, bit-flipped, wrong-magic, wrong-version, or
//! crafted-huge-length inputs all come back as a [`FrameError`], never a
//! panic (property-tested in the repository's `tests/props.rs`).

use bytes::{BufMut, Bytes, BytesMut};
use tad_codec::envelope::ENVELOPE_OVERHEAD;
use tad_codec::{envelope_payload, seal_envelope_into, Reader};
use tad_metrics::{snapshot_from_bytes, snapshot_to_bytes, MetricsSnapshot};
use tad_serve::{Completion, Event, FleetSnapshot, PolicyAction, ScoreUpdate, TripId, TripOutcome};

/// Magic bytes opening every wire frame.
pub const FRAME_MAGIC: &[u8; 4] = b"TADN";
/// Wire-format version carried in every frame header.
pub const FRAME_VERSION: u16 = 2;
/// Default cap on a frame's payload length (64 MiB) — what a reader will
/// allocate for one frame before distrusting the peer. Snapshot frames of
/// very large fleets may need a higher cap on both ends.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;
/// Longest `detail` string an [`Response::Error`] frame may carry; longer
/// strings are truncated at a UTF-8 boundary by the encoder and rejected
/// by the decoder.
pub const MAX_ERROR_DETAIL: usize = 512;

const TAG_TRIP_START: u8 = 0x01;
const TAG_SEGMENT: u8 = 0x02;
const TAG_TRIP_END: u8 = 0x03;
const TAG_FLUSH: u8 = 0x04;
const TAG_SNAPSHOT_REQUEST: u8 = 0x05;
const TAG_METRICS_REQUEST: u8 = 0x06;
const TAG_DELTA_REQUEST: u8 = 0x07;
const TAG_INSTALL: u8 = 0x08;
const TAG_DRAIN: u8 = 0x09;

const TAG_SCORE: u8 = 0x10;
const TAG_TRIP_COMPLETE: u8 = 0x11;
const TAG_STATS: u8 = 0x12;
const TAG_ERROR: u8 = 0x13;
const TAG_SNAPSHOT: u8 = 0x14;
const TAG_METRICS: u8 = 0x15;
const TAG_POLICY_NOTICE: u8 = 0x16;
const TAG_DELTA: u8 = 0x17;
const TAG_INSTALLED: u8 = 0x18;
const TAG_DRAINED: u8 = 0x19;

/// One client→server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a scoring session: the SD pair and departure slot are known at
    /// order time. The connection that sends this owns the trip — its
    /// [`Response::Score`] and [`Response::TripComplete`] frames are
    /// routed back to it.
    TripStart {
        /// The new trip's id (unique across the fleet).
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
    /// Quiesce barrier: the server replies with [`Response::Stats`] once
    /// every event accepted before this frame has been scored and its
    /// responses queued — so everything sent so far is answered first.
    Flush,
    /// Ask for a fleet snapshot ([`tad_serve::FleetImage`] bytes) for
    /// remote warm restart; answered with [`Response::Snapshot`].
    SnapshotRequest,
    /// Ask for the server's latency/throughput metrics; answered with
    /// [`Response::Metrics`]. A `tad-router` answers with the merged
    /// snapshot of every backend behind it plus its own `router.*`
    /// metrics — one frame, one fleet view.
    MetricsRequest,
    /// Ask for the next delta snapshot of the server's checkpoint chain
    /// (a `TADD` blob for [`tad_serve::delta_from_bytes`]); answered with
    /// [`Response::Delta`]. Fails typed
    /// ([`ErrorCode::SnapshotFailed`]) before the first checkpoint.
    DeltaRequest,
    /// Seed the server's **running** engine with the sessions of a fleet
    /// image (`TADF` blob) — the target half of a live handoff or a
    /// failover restore. Answered with [`Response::Installed`] once the
    /// sessions are enqueued ahead of any later traffic on this
    /// connection.
    Install {
        /// The serialized [`tad_serve::FleetImage`] to restore.
        image: Bytes,
    },
    /// Capture **and remove** every live session (no completion frames
    /// are emitted for them — they are moving, not finishing); answered
    /// with [`Response::Drained`] carrying the image to install
    /// elsewhere.
    Drain,
}

impl Request {
    /// The engine event this request carries, if it is an ingest request
    /// (`TripStart`/`Segment`/`TripEnd`); `None` for control requests.
    pub fn to_event(&self) -> Option<Event> {
        match *self {
            Request::TripStart { id, source, dest, time_slot } => {
                Some(Event::TripStart { id, source, dest, time_slot })
            }
            Request::Segment { id, seg } => Some(Event::Segment { id, seg }),
            Request::TripEnd { id } => Some(Event::TripEnd { id }),
            Request::Flush
            | Request::SnapshotRequest
            | Request::MetricsRequest
            | Request::DeltaRequest
            | Request::Install { .. }
            | Request::Drain => None,
        }
    }
}

impl From<Event> for Request {
    fn from(ev: Event) -> Request {
        match ev {
            Event::TripStart { id, source, dest, time_slot } => {
                Request::TripStart { id, source, dest, time_slot }
            }
            Event::Segment { id, seg } => Request::Segment { id, seg },
            Event::TripEnd { id } => Request::TripEnd { id },
        }
    }
}

/// Final scoring result of a trip as carried on the wire — the network
/// image of [`TripOutcome`]. What each segment contributed went out once,
/// in its [`Response::Score`] frame; this carries the totals and the
/// segment count.
#[derive(Clone, Debug, PartialEq)]
pub struct TripComplete {
    /// The finished trip.
    pub id: TripId,
    /// Why the trip left the engine.
    pub completion: Completion,
    /// Final debiased anomaly score (Eq. 10).
    pub score: f64,
    /// The un-debiased likelihood part of the score.
    pub likelihood_nll: f64,
    /// Accumulated scaling sum `Σ_i log E[1/P(t_i|e_i)]`.
    pub scale_log_sum: f64,
    /// Number of segments the trip consumed.
    pub segments: u32,
}

impl TripComplete {
    /// Number of segments the trip consumed.
    pub fn segments(&self) -> usize {
        self.segments as usize
    }
}

impl From<TripOutcome> for TripComplete {
    fn from(outcome: TripOutcome) -> TripComplete {
        TripComplete {
            id: outcome.id,
            completion: outcome.completion,
            score: outcome.score,
            likelihood_nll: outcome.likelihood_nll,
            scale_log_sum: outcome.scale_log_sum,
            segments: outcome.segments as u32,
        }
    }
}

/// Why the server refused or failed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The target shard's ingest queue was full; the event was **not**
    /// accepted. The producer must re-send it **before sending any later
    /// event for the same trip** — later events it already pipelined past
    /// the bounce were accepted in arrival order, so a late re-send would
    /// be scored out of order. Producers that pipeline aggressively
    /// should pace with `Flush` barriers or treat a bounce as fatal for
    /// the trip.
    Backpressure,
    /// The request was structurally fine but refused (e.g. a `TripStart`
    /// for a trip id another live connection owns).
    Rejected,
    /// The engine behind the server has shut down; the connection is about
    /// to close.
    EngineClosed,
    /// The peer sent bytes that do not decode as a frame; framing is lost,
    /// so the connection closes after this reply.
    BadFrame,
    /// A requested fleet snapshot could not be captured.
    SnapshotFailed,
    /// The sender exceeded an admission limit — the per-connection rate
    /// limit, or a fleet-wide watermark that sheds new `TripStart`s. When
    /// trip-scoped, the named event was **not** accepted (same re-send
    /// contract as [`ErrorCode::Backpressure`]); trip-less, it is a
    /// once-per-episode pacing notice. The frame's `retry_after_ms` field
    /// carries the server's pacing hint.
    Throttled,
    /// The server is at its configured connection quota; this connection
    /// was refused at accept time and closes after this reply.
    ConnLimit,
    /// The connection sat idle (no frames, no in-flight trips) past the
    /// server's idle timeout; it closes after this reply.
    IdleTimeout,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Backpressure => 0,
            ErrorCode::Rejected => 1,
            ErrorCode::EngineClosed => 2,
            ErrorCode::BadFrame => 3,
            ErrorCode::SnapshotFailed => 4,
            ErrorCode::Throttled => 5,
            ErrorCode::ConnLimit => 6,
            ErrorCode::IdleTimeout => 7,
        }
    }

    fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            0 => Some(ErrorCode::Backpressure),
            1 => Some(ErrorCode::Rejected),
            2 => Some(ErrorCode::EngineClosed),
            3 => Some(ErrorCode::BadFrame),
            4 => Some(ErrorCode::SnapshotFailed),
            5 => Some(ErrorCode::Throttled),
            6 => Some(ErrorCode::ConnLimit),
            7 => Some(ErrorCode::IdleTimeout),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorCode::Backpressure => write!(f, "backpressure (event not accepted; re-send)"),
            ErrorCode::Rejected => write!(f, "request rejected"),
            ErrorCode::EngineClosed => write!(f, "engine closed"),
            ErrorCode::BadFrame => write!(f, "undecodable frame"),
            ErrorCode::SnapshotFailed => write!(f, "snapshot capture failed"),
            ErrorCode::Throttled => write!(f, "throttled (admission limit; pace and retry)"),
            ErrorCode::IdleTimeout => write!(f, "idle timeout"),
            ErrorCode::ConnLimit => write!(f, "connection quota reached"),
        }
    }
}

fn completion_to_byte(c: Completion) -> u8 {
    match c {
        Completion::Ended => 0,
        Completion::EvictedTtl => 1,
        Completion::EvictedLru => 2,
        Completion::Shutdown => 3,
    }
}

fn completion_from_byte(b: u8) -> Option<Completion> {
    match b {
        0 => Some(Completion::Ended),
        1 => Some(Completion::EvictedTtl),
        2 => Some(Completion::EvictedLru),
        3 => Some(Completion::Shutdown),
        _ => None,
    }
}

/// One server→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Per-segment online score delivery: pushed to the owning connection
    /// after every scored segment of its trips, in per-trip order.
    Score(ScoreUpdate),
    /// A trip left the engine (ended, evicted, or flushed at shutdown).
    TripComplete(TripComplete),
    /// Reply to [`Request::Flush`]: point-in-time fleet counters, sent
    /// after the quiesce barrier.
    Stats(FleetSnapshot),
    /// The server refused or failed a request; see [`ErrorCode`].
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// The trip the failed request concerned, when there was one.
        trip: Option<TripId>,
        /// Pacing hint for [`ErrorCode::Throttled`]: how long the sender
        /// should back off before offering more load. `None` for codes
        /// that carry no pacing semantics.
        retry_after_ms: Option<u64>,
        /// Human-readable context (≤ [`MAX_ERROR_DETAIL`] bytes).
        detail: String,
    },
    /// Reply to [`Request::SnapshotRequest`]: a serialized
    /// [`tad_serve::FleetImage`] (`TADF` blob) ready for
    /// [`tad_serve::image_from_bytes`] and a warm restart elsewhere.
    Snapshot {
        /// The snapshot blob.
        image: Bytes,
    },
    /// Reply to [`Request::MetricsRequest`]: the server's metrics
    /// snapshot (a `TADM` blob on the wire, decoded here). From a router
    /// this is the fleet-merged view; [`MetricsSnapshot::merged`] is
    /// exactly associative, so the wire merge is bit-identical to an
    /// in-process aggregation of the same per-backend snapshots.
    Metrics(MetricsSnapshot),
    /// An ingest-sanitization outcome for one of this connection's trips:
    /// the serving layer's `StreamPolicy` dropped a duplicate, repaired a
    /// reorder, handled an off-network gap, or quarantined a malformed
    /// event. Informational — the score stream is unaffected beyond what
    /// the action says — and sent only to the trip's owning connection.
    PolicyNotice {
        /// The trip the sanitization concerned.
        id: TripId,
        /// What the policy layer did.
        action: PolicyAction,
        /// The segment involved, when the action concerns one.
        seg: Option<u32>,
    },
    /// Reply to [`Request::DeltaRequest`]: the next increment of the
    /// server's checkpoint chain (a `TADD` blob for
    /// [`tad_serve::delta_from_bytes`]).
    Delta {
        /// The serialized [`tad_serve::FleetDelta`].
        delta: Bytes,
    },
    /// Reply to [`Request::Install`]: the sessions were delivered to the
    /// running engine.
    Installed {
        /// How many sessions the image carried into the engine.
        sessions: u64,
    },
    /// Reply to [`Request::Drain`]: every live session, captured and
    /// removed, as a `TADF` blob ready for [`Request::Install`] on
    /// another backend.
    Drained {
        /// The serialized [`tad_serve::FleetImage`] of the drained
        /// sessions.
        image: Bytes,
    },
}

impl Response {
    /// A [`Response::Error`] without a pacing hint (every code but
    /// [`ErrorCode::Throttled`]).
    pub fn error(code: ErrorCode, trip: Option<TripId>, detail: impl Into<String>) -> Response {
        Response::Error { code, trip, retry_after_ms: None, detail: detail.into() }
    }
}

/// Why a frame failed to decode. Decoding is total: hostile bytes always
/// land in one of these variants, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Magic bytes did not match `TADN`.
    BadMagic,
    /// Unsupported wire-format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (line noise or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
    /// The tag byte names no known frame type.
    UnknownTag(u8),
    /// The tag byte names a frame of the wrong direction (a response where
    /// a request was expected, or vice versa).
    UnexpectedKind {
        /// The direction the decoder wanted.
        expected: &'static str,
        /// The direction the tag actually named.
        got: &'static str,
    },
    /// The frame announces a payload longer than the reader's cap; refused
    /// before allocating.
    TooLarge {
        /// Announced payload length.
        len: u64,
        /// The reader's cap.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic bytes"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::Truncated(what) => write!(f, "truncated frame at {what}"),
            FrameError::ChecksumMismatch => write!(f, "frame payload checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::UnexpectedKind { expected, got } => {
                write!(f, "expected a {expected} frame, got a {got} frame")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the cap of {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

tad_codec::codec_error_from!(FrameError);

/// Serialises one request frame (envelope included).
pub fn request_to_bytes(req: &Request) -> Bytes {
    let mut frame = BytesMut::with_capacity(ENVELOPE_OVERHEAD + 32);
    request_into(req, &mut frame);
    frame.freeze()
}

/// Appends one request frame (envelope included) to `out` — the bytes
/// [`request_to_bytes`] returns, written in place behind whatever `out`
/// already holds: the mirror of [`response_into`], so a relay encodes a
/// forwarded request straight into its write run.
pub fn request_into(req: &Request, out: &mut BytesMut) {
    seal_envelope_into(FRAME_MAGIC, FRAME_VERSION, out, |payload| match *req {
        Request::TripStart { id, source, dest, time_slot } => {
            payload.put_u8(TAG_TRIP_START);
            payload.put_u64_le(id);
            payload.put_u32_le(source);
            payload.put_u32_le(dest);
            payload.put_u8(time_slot);
        }
        Request::Segment { id, seg } => {
            payload.put_u8(TAG_SEGMENT);
            payload.put_u64_le(id);
            payload.put_u32_le(seg);
        }
        Request::TripEnd { id } => {
            payload.put_u8(TAG_TRIP_END);
            payload.put_u64_le(id);
        }
        Request::Flush => payload.put_u8(TAG_FLUSH),
        Request::SnapshotRequest => payload.put_u8(TAG_SNAPSHOT_REQUEST),
        Request::MetricsRequest => payload.put_u8(TAG_METRICS_REQUEST),
        Request::DeltaRequest => payload.put_u8(TAG_DELTA_REQUEST),
        Request::Install { ref image } => {
            // Remainder-is-the-blob, like Response::Snapshot: the
            // envelope's length prefix delimits the image exactly.
            payload.put_u8(TAG_INSTALL);
            payload.put_slice(image);
        }
        Request::Drain => payload.put_u8(TAG_DRAIN),
    });
}

/// Serialises one response frame (envelope included).
pub fn response_to_bytes(resp: &Response) -> Bytes {
    let mut frame = BytesMut::with_capacity(ENVELOPE_OVERHEAD + 64);
    response_into(resp, &mut frame);
    frame.freeze()
}

/// Byte length of a [`Response::Score`] frame: what a chunk of `n` scores
/// reserves, `n` times.
pub(crate) const SCORE_FRAME_LEN: usize = ENVELOPE_OVERHEAD + SCORE_PAYLOAD_LEN;

/// Tag, trip id, sequence number, segment, and the three score terms.
const SCORE_PAYLOAD_LEN: usize = 1 + 8 + 4 + 4 + 3 * 8;

/// Appends one response frame (envelope included) to `out` — the bytes
/// [`response_to_bytes`] returns, written in place behind whatever `out`
/// already holds, so a run of frames shares one buffer and an encode
/// into spare capacity allocates nothing.
pub fn response_into(resp: &Response, out: &mut BytesMut) {
    seal_envelope_into(FRAME_MAGIC, FRAME_VERSION, out, |payload| match resp {
        Response::Score(s) => {
            payload.put_u8(TAG_SCORE);
            payload.put_u64_le(s.id);
            payload.put_u32_le(s.seq);
            payload.put_u32_le(s.segment);
            payload.put_f64_le(s.score);
            payload.put_f64_le(s.nll);
            payload.put_f64_le(s.log_scale);
        }
        Response::TripComplete(tc) => {
            payload.put_u8(TAG_TRIP_COMPLETE);
            payload.put_u64_le(tc.id);
            payload.put_u8(completion_to_byte(tc.completion));
            payload.put_f64_le(tc.score);
            payload.put_f64_le(tc.likelihood_nll);
            payload.put_f64_le(tc.scale_log_sum);
            payload.put_u32_le(tc.segments);
        }
        Response::Stats(s) => {
            payload.put_u8(TAG_STATS);
            payload.put_u64_le(s.events_ingested);
            payload.put_u64_le(s.segments_scored);
            payload.put_u64_le(s.trips_started);
            payload.put_u64_le(s.trips_completed);
            payload.put_u64_le(s.evictions_ttl);
            payload.put_u64_le(s.evictions_lru);
            payload.put_u64_le(s.rejected);
            payload.put_u64_le(s.off_graph_hits);
            payload.put_u64_le(s.batches);
            payload.put_u64_le(s.active_sessions);
            payload.put_u64_le(s.sessions_restored);
            payload.put_f64_le(s.uptime_secs);
            payload.put_f64_le(s.events_per_sec);
            payload.put_f64_le(s.mean_batch_size);
        }
        Response::Error { code, trip, retry_after_ms, detail } => {
            payload.put_u8(TAG_ERROR);
            payload.put_u8(code.to_byte());
            match trip {
                Some(id) => {
                    payload.put_u8(1);
                    payload.put_u64_le(*id);
                }
                None => payload.put_u8(0),
            }
            match retry_after_ms {
                Some(ms) => {
                    payload.put_u8(1);
                    payload.put_u64_le(*ms);
                }
                None => payload.put_u8(0),
            }
            // Truncate over-long details at a char boundary so the frame
            // always fits the decoder's cap.
            let mut cut = detail.len().min(MAX_ERROR_DETAIL);
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            payload.put_u16_le(cut as u16);
            payload.put_slice(&detail.as_bytes()[..cut]);
        }
        Response::Snapshot { image } => {
            // The image is the remainder of the payload: the envelope's
            // own length prefix already delimits it exactly.
            payload.put_u8(TAG_SNAPSHOT);
            payload.put_slice(image);
        }
        Response::Metrics(snapshot) => {
            // Same remainder-is-the-blob layout as Snapshot; the TADM
            // codec is canonical, so this frame re-encodes byte-for-byte.
            payload.put_u8(TAG_METRICS);
            payload.put_slice(&snapshot_to_bytes(snapshot));
        }
        Response::PolicyNotice { id, action, seg } => {
            payload.put_u8(TAG_POLICY_NOTICE);
            payload.put_u64_le(*id);
            payload.put_u8(action.wire_byte());
            match seg {
                Some(seg) => {
                    payload.put_u8(1);
                    payload.put_u32_le(*seg);
                }
                None => payload.put_u8(0),
            }
        }
        Response::Delta { delta } => {
            payload.put_u8(TAG_DELTA);
            payload.put_slice(delta);
        }
        Response::Installed { sessions } => {
            payload.put_u8(TAG_INSTALLED);
            payload.put_u64_le(*sessions);
        }
        Response::Drained { image } => {
            payload.put_u8(TAG_DRAINED);
            payload.put_slice(image);
        }
    });
}

/// Reads the routing facts of a [`Response::Score`] frame — its trip id
/// and sequence number, at their fixed payload offsets — without building
/// the response: what a relay needs to pass the frame's original bytes
/// on. `Ok(None)` is any frame whose tag is not `Score`, unverified (its
/// decoder will judge it); a `Score` frame is verified in full, so
/// whatever this accepts [`response_from_bytes`] accepts too.
///
/// # Errors
/// The [`FrameError`] [`response_from_bytes`] would return for the same
/// bytes. Never panics.
pub fn peek_score(frame: &[u8]) -> Result<Option<(TripId, u32)>, FrameError> {
    if frame.get(tad_codec::ENVELOPE_HEADER_LEN) != Some(&TAG_SCORE) {
        return Ok(None);
    }
    let mut r = Reader::new(envelope_payload(FRAME_MAGIC, FRAME_VERSION, frame)?);
    r.u8("frame tag")?;
    let route = (r.u64("score body")?, r.u32("score body")?);
    // The segment and the three score terms: present, and nothing after.
    r.bytes(SCORE_PAYLOAD_LEN - (1 + 8 + 4), "score body")?;
    r.finish()?;
    Ok(Some(route))
}

/// Decodes one request frame. The whole input must be one frame.
///
/// # Errors
/// As [`request_from_frame`]. Never panics.
pub fn request_from_bytes(bytes: Bytes) -> Result<Request, FrameError> {
    request_from_frame(&bytes)
}

/// [`request_from_bytes`] over borrowed bytes — a frame lent out of a
/// connection's read buffer. The envelope is verified in place; only an
/// `Install`'s image, which the request owns, is copied out.
///
/// # Errors
/// Returns the [`FrameError`] naming what failed; response tags come back
/// as [`FrameError::UnexpectedKind`]. Never panics.
pub fn request_from_frame(frame: &[u8]) -> Result<Request, FrameError> {
    let mut r = Reader::new(envelope_payload(FRAME_MAGIC, FRAME_VERSION, frame)?);
    let req = match r.u8("frame tag")? {
        TAG_TRIP_START => Request::TripStart {
            id: r.u64("trip-start body")?,
            source: r.u32("trip-start body")?,
            dest: r.u32("trip-start body")?,
            time_slot: r.u8("trip-start body")?,
        },
        TAG_SEGMENT => Request::Segment { id: r.u64("segment body")?, seg: r.u32("segment body")? },
        TAG_TRIP_END => Request::TripEnd { id: r.u64("trip-end body")? },
        TAG_FLUSH => Request::Flush,
        TAG_SNAPSHOT_REQUEST => Request::SnapshotRequest,
        TAG_METRICS_REQUEST => Request::MetricsRequest,
        TAG_DELTA_REQUEST => Request::DeltaRequest,
        TAG_INSTALL => Request::Install { image: r.rest().into() },
        TAG_DRAIN => Request::Drain,
        TAG_SCORE | TAG_TRIP_COMPLETE | TAG_STATS | TAG_ERROR | TAG_SNAPSHOT | TAG_METRICS
        | TAG_POLICY_NOTICE | TAG_DELTA | TAG_INSTALLED | TAG_DRAINED => {
            return Err(FrameError::UnexpectedKind { expected: "request", got: "response" });
        }
        other => return Err(FrameError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes one response frame. The whole input must be one frame.
///
/// # Errors
/// As [`response_from_frame`]. Never panics.
pub fn response_from_bytes(bytes: Bytes) -> Result<Response, FrameError> {
    response_from_frame(&bytes)
}

/// [`response_from_bytes`] over borrowed bytes — a frame lent out of a
/// read buffer. The envelope is verified in place; only the blobs a
/// response owns (`Snapshot`, `Delta`, `Drained` images, the `Metrics`
/// snapshot's bytes) are copied out.
///
/// # Errors
/// Returns the [`FrameError`] naming what failed; request tags come back
/// as [`FrameError::UnexpectedKind`]. Never panics.
pub fn response_from_frame(frame: &[u8]) -> Result<Response, FrameError> {
    let mut r = Reader::new(envelope_payload(FRAME_MAGIC, FRAME_VERSION, frame)?);
    let resp = match r.u8("frame tag")? {
        TAG_SCORE => Response::Score(ScoreUpdate {
            id: r.u64("score body")?,
            seq: r.u32("score body")?,
            segment: r.u32("score body")?,
            score: r.f64("score body")?,
            nll: r.f64("score body")?,
            log_scale: r.f64("score body")?,
        }),
        TAG_TRIP_COMPLETE => Response::TripComplete(TripComplete {
            id: r.u64("trip-complete body")?,
            completion: completion_from_byte(r.u8("trip-complete body")?)
                .ok_or(FrameError::Malformed("completion code"))?,
            score: r.f64("trip-complete body")?,
            likelihood_nll: r.f64("trip-complete body")?,
            scale_log_sum: r.f64("trip-complete body")?,
            segments: r.u32("trip-complete body")?,
        }),
        TAG_STATS => Response::Stats(FleetSnapshot {
            events_ingested: r.u64("stats body")?,
            segments_scored: r.u64("stats body")?,
            trips_started: r.u64("stats body")?,
            trips_completed: r.u64("stats body")?,
            evictions_ttl: r.u64("stats body")?,
            evictions_lru: r.u64("stats body")?,
            rejected: r.u64("stats body")?,
            off_graph_hits: r.u64("stats body")?,
            batches: r.u64("stats body")?,
            active_sessions: r.u64("stats body")?,
            sessions_restored: r.u64("stats body")?,
            uptime_secs: r.f64("stats body")?,
            events_per_sec: r.f64("stats body")?,
            mean_batch_size: r.f64("stats body")?,
        }),
        TAG_ERROR => {
            let code = ErrorCode::from_byte(r.u8("error body")?)
                .ok_or(FrameError::Malformed("error code"))?;
            let trip = r.opt("error trip flag", |r| r.u64("error trip id"))?;
            let retry_after_ms = r.opt("error retry flag", |r| r.u64("error retry-after"))?;
            let dlen = r.u16("error detail length")? as usize;
            if dlen > MAX_ERROR_DETAIL {
                return Err(FrameError::Malformed("error detail too long"));
            }
            let detail = std::str::from_utf8(r.bytes(dlen, "error detail")?)
                .map_err(|_| FrameError::Malformed("error detail not UTF-8"))?
                .to_string();
            Response::Error { code, trip, retry_after_ms, detail }
        }
        TAG_SNAPSHOT => Response::Snapshot { image: r.rest().into() },
        TAG_METRICS => Response::Metrics(
            snapshot_from_bytes(r.rest().into())
                .map_err(|_| FrameError::Malformed("metrics blob"))?,
        ),
        TAG_POLICY_NOTICE => Response::PolicyNotice {
            id: r.u64("policy-notice body")?,
            action: PolicyAction::from_wire_byte(r.u8("policy-notice body")?)
                .ok_or(FrameError::Malformed("policy action"))?,
            seg: r.opt("policy-notice segment flag", |r| r.u32("policy-notice segment"))?,
        },
        TAG_DELTA => Response::Delta { delta: r.rest().into() },
        TAG_INSTALLED => Response::Installed { sessions: r.u64("installed body")? },
        TAG_DRAINED => Response::Drained { image: r.rest().into() },
        TAG_TRIP_START | TAG_SEGMENT | TAG_TRIP_END | TAG_FLUSH | TAG_SNAPSHOT_REQUEST
        | TAG_METRICS_REQUEST | TAG_DELTA_REQUEST | TAG_INSTALL | TAG_DRAIN => {
            return Err(FrameError::UnexpectedKind { expected: "response", got: "request" });
        }
        other => return Err(FrameError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request::TripStart { id: 7, source: 3, dest: 11, time_slot: 5 },
            Request::Segment { id: 7, seg: 42 },
            Request::TripEnd { id: 7 },
            Request::Flush,
            Request::SnapshotRequest,
            Request::MetricsRequest,
            Request::DeltaRequest,
            Request::Install { image: Bytes::from(vec![9u8, 8, 7]) },
            Request::Install { image: Bytes::from(Vec::new()) },
            Request::Drain,
        ]
    }

    pub(crate) fn sample_metrics() -> MetricsSnapshot {
        let reg = tad_metrics::Registry::new();
        reg.counter("net.backpressure_replies").add(3);
        reg.gauge("serve.ingest_inflight").add(-2);
        let h = reg.histogram("serve.score_latency_ns");
        h.record(900);
        h.record_n(125_000, 64);
        reg.snapshot()
    }

    pub(crate) fn sample_responses() -> Vec<Response> {
        vec![
            Response::Score(ScoreUpdate {
                id: 7,
                seq: 3,
                segment: 42,
                score: 1.25,
                nll: 0.5,
                log_scale: -0.25,
            }),
            Response::TripComplete(TripComplete {
                id: 7,
                completion: Completion::Ended,
                score: 2.5,
                likelihood_nll: 3.0,
                scale_log_sum: 0.5,
                segments: 2,
            }),
            Response::Stats(FleetSnapshot {
                events_ingested: 1,
                segments_scored: 2,
                trips_started: 3,
                trips_completed: 4,
                evictions_ttl: 5,
                evictions_lru: 6,
                rejected: 7,
                off_graph_hits: 8,
                batches: 9,
                active_sessions: 10,
                sessions_restored: 11,
                uptime_secs: 1.5,
                events_per_sec: 2.5,
                mean_batch_size: 3.5,
            }),
            Response::Error {
                code: ErrorCode::Backpressure,
                trip: Some(7),
                retry_after_ms: None,
                detail: "queue full".to_string(),
            },
            Response::Error {
                code: ErrorCode::EngineClosed,
                trip: None,
                retry_after_ms: None,
                detail: String::new(),
            },
            Response::Error {
                code: ErrorCode::Throttled,
                trip: None,
                retry_after_ms: Some(125),
                detail: "rate limit".to_string(),
            },
            Response::Error {
                code: ErrorCode::Throttled,
                trip: Some(9),
                retry_after_ms: Some(50),
                detail: "admission shed".to_string(),
            },
            Response::Error {
                code: ErrorCode::ConnLimit,
                trip: None,
                retry_after_ms: None,
                detail: "connection quota".to_string(),
            },
            Response::Error {
                code: ErrorCode::IdleTimeout,
                trip: None,
                retry_after_ms: None,
                detail: String::new(),
            },
            Response::Snapshot { image: Bytes::from(vec![1u8, 2, 3, 4]) },
            Response::Metrics(sample_metrics()),
            Response::Metrics(MetricsSnapshot::default()),
            Response::PolicyNotice { id: 7, action: PolicyAction::Reordered, seg: Some(42) },
            Response::PolicyNotice {
                id: 9,
                action: PolicyAction::QuarantinedUnknownTrip,
                seg: None,
            },
            Response::Delta { delta: Bytes::from(vec![5u8, 6, 7, 8]) },
            Response::Installed { sessions: 42 },
            Response::Drained { image: Bytes::from(vec![1u8, 3, 5]) },
            Response::Drained { image: Bytes::from(Vec::new()) },
        ]
    }

    #[test]
    fn every_request_roundtrips() {
        for req in sample_requests() {
            let blob = request_to_bytes(&req);
            assert_eq!(request_from_bytes(blob.clone()).expect("decode"), req);
            // Canonical encoding.
            assert_eq!(request_to_bytes(&request_from_bytes(blob.clone()).unwrap()), blob);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        for resp in sample_responses() {
            let blob = response_to_bytes(&resp);
            let decoded = response_from_bytes(blob.clone()).expect("decode");
            assert_eq!(decoded, resp);
            assert_eq!(response_to_bytes(&decoded).to_vec(), blob.to_vec());
        }
    }

    #[test]
    fn response_into_appends_the_bytes_of_response_to_bytes() {
        let mut run = BytesMut::new();
        let mut expected = Vec::new();
        for resp in sample_responses() {
            response_into(&resp, &mut run);
            expected.extend_from_slice(&response_to_bytes(&resp));
        }
        assert_eq!(run.to_vec(), expected);
        let score = response_to_bytes(&sample_responses()[0]);
        assert_eq!(score.len(), SCORE_FRAME_LEN);

        // Into spare capacity the encoder never asks the heap for anything
        // (metrics snapshots aside: their blob is built by its own codec).
        let fixed: Vec<Response> = sample_responses()
            .into_iter()
            .filter(|resp| !matches!(resp, Response::Metrics(_)))
            .collect();
        let mut run = BytesMut::with_capacity(expected.len());
        let ((), requests) = crate::counting::heap_requests(|| {
            fixed.iter().for_each(|resp| response_into(resp, &mut run));
        });
        assert_eq!(requests, 0);
    }

    /// `peek_score` reads a `Score` frame's route, leaves every other tag
    /// to its decoder, and judges hostile bytes exactly as the decoder
    /// does: whenever it answers `Some`, the frame decodes to a `Score`
    /// with that route; whenever it fails, so does the decoder.
    #[test]
    fn peek_score_agrees_with_the_decoder_on_every_flip_and_cut() {
        for resp in sample_responses() {
            let blob = response_to_bytes(&resp).to_vec();
            let route = match &resp {
                Response::Score(s) => Some((s.id, s.seq)),
                _ => None,
            };
            assert_eq!(peek_score(&blob), Ok(route));
            let mut hostile: Vec<Vec<u8>> =
                (0..blob.len()).map(|cut| blob[..cut].to_vec()).collect();
            for byte in 0..blob.len() {
                for bit in 0..8u32 {
                    let mut raw = blob.clone();
                    raw[byte] ^= 1 << bit;
                    hostile.push(raw);
                }
            }
            hostile.push([&blob[..], &[0u8]].concat());
            for raw in hostile {
                match (peek_score(&raw), response_from_bytes(raw.clone().into())) {
                    (Ok(Some((id, seq))), Ok(Response::Score(s))) => {
                        assert_eq!((id, seq), (s.id, s.seq))
                    }
                    (Ok(Some(_)), other) => panic!("peeked a route the decoder refused: {other:?}"),
                    (Ok(None), _) => {
                        assert_ne!(raw.get(tad_codec::ENVELOPE_HEADER_LEN), Some(&TAG_SCORE))
                    }
                    (Err(e), decoded) => assert_eq!(decoded, Err(e)),
                }
            }
        }
    }

    #[test]
    fn direction_confusion_is_typed() {
        let req = request_to_bytes(&Request::Flush);
        assert_eq!(
            response_from_bytes(req),
            Err(FrameError::UnexpectedKind { expected: "response", got: "request" })
        );
        let resp = response_to_bytes(&Response::Error {
            code: ErrorCode::Rejected,
            trip: None,
            retry_after_ms: None,
            detail: String::new(),
        });
        assert_eq!(
            request_from_bytes(resp),
            Err(FrameError::UnexpectedKind { expected: "request", got: "response" })
        );
    }

    #[test]
    fn corruption_battery_never_panics() {
        let mut blobs: Vec<Vec<u8>> =
            sample_requests().iter().map(|r| request_to_bytes(r).to_vec()).collect();
        blobs.extend(sample_responses().iter().map(|r| response_to_bytes(r).to_vec()));
        for blob in blobs {
            for cut in 0..blob.len() {
                assert!(request_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");
                assert!(response_from_bytes(blob[..cut].to_vec().into()).is_err(), "cut={cut}");
            }
            for byte in 0..blob.len() {
                for bit in 0..8u32 {
                    let mut raw = blob.clone();
                    raw[byte] ^= 1 << bit;
                    // Either decoder must survive (and may legitimately
                    // still accept a same-direction decode only if the
                    // flip cancels out, which the checksum prevents).
                    assert!(
                        request_from_bytes(raw.clone().into()).is_err(),
                        "byte={byte} bit={bit}"
                    );
                    assert!(response_from_bytes(raw.into()).is_err(), "byte={byte} bit={bit}");
                }
            }
        }
    }

    #[test]
    fn huge_crafted_lengths_error_instead_of_panicking() {
        // Envelope payload length near u64::MAX.
        let mut raw = Vec::new();
        raw.extend_from_slice(FRAME_MAGIC);
        raw.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(request_from_bytes(raw.into()), Err(FrameError::Truncated("payload")));
        // A snapshot body has no inner length to lie about: it is exactly
        // the payload remainder, so even an empty image decodes cleanly.
        let mut payload = BytesMut::new();
        payload.put_u8(TAG_SNAPSHOT);
        let blob = tad_codec::seal_envelope(FRAME_MAGIC, FRAME_VERSION, payload.freeze());
        assert_eq!(
            response_from_bytes(blob),
            Ok(Response::Snapshot { image: Bytes::from(Vec::new()) })
        );
    }

    #[test]
    fn a_version_1_frame_is_refused_typed() {
        // Version 1's trip-complete carried the whole trace (a `u32` count,
        // then segment / nll / log-scale per entry): a valid one, sealed.
        let mut payload = BytesMut::new();
        payload.put_u8(TAG_TRIP_COMPLETE);
        payload.put_u64_le(7);
        payload.put_u8(completion_to_byte(Completion::Ended));
        [2.5f64, 3.0, 0.5].iter().for_each(|&x| payload.put_f64_le(x));
        payload.put_u32_le(1);
        payload.put_u32_le(4);
        payload.put_f64_le(0.5);
        payload.put_f64_le(0.1);
        let v1 = tad_codec::seal_envelope(FRAME_MAGIC, 1, payload.freeze());
        assert_eq!(response_from_bytes(v1.clone()), Err(FrameError::BadVersion(1)));
        assert_eq!(peek_score(&v1), Ok(None), "not a score: left to the decoder");
        // Every other frame of version 1 too, in both directions and on
        // the score relay's peek.
        let requests = sample_requests().iter().map(request_to_bytes).collect::<Vec<_>>();
        let responses = sample_responses().iter().map(response_to_bytes).collect::<Vec<_>>();
        for blob in requests.iter().chain(&responses) {
            let body = envelope_payload(FRAME_MAGIC, FRAME_VERSION, blob).expect("sealed");
            let v1 = tad_codec::seal_envelope(FRAME_MAGIC, 1, Bytes::from(body.to_vec()));
            assert_eq!(request_from_bytes(v1.clone()), Err(FrameError::BadVersion(1)));
            assert_eq!(response_from_bytes(v1.clone()), Err(FrameError::BadVersion(1)));
            if body[0] == TAG_SCORE {
                assert_eq!(peek_score(&v1), Err(FrameError::BadVersion(1)));
            }
        }
    }

    #[test]
    fn long_error_details_truncate_at_char_boundaries() {
        // 600 two-byte chars: the encoder must cut at <= 512 bytes on a
        // boundary and the result must still decode.
        let detail = "é".repeat(600);
        let resp =
            Response::Error { code: ErrorCode::BadFrame, trip: None, retry_after_ms: None, detail };
        let decoded = response_from_bytes(response_to_bytes(&resp)).expect("decode");
        match decoded {
            Response::Error { detail, .. } => {
                assert!(detail.len() <= MAX_ERROR_DETAIL);
                assert!(detail.chars().all(|c| c == 'é'));
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn request_event_conversion_roundtrips() {
        let ev = Event::TripStart { id: 9, source: 1, dest: 2, time_slot: 3 };
        assert_eq!(Request::from(ev).to_event(), Some(ev));
        assert_eq!(Request::Flush.to_event(), None);
        assert_eq!(Request::SnapshotRequest.to_event(), None);
    }

    /// The five envelope formats encode byte for byte as pinned here:
    /// router journals, `TADN` peers of another build and `tadbench`'s
    /// bit-identity oracle all ride on these bytes. A format whose bytes
    /// move on purpose bumps its version, and `TADF` and `TADD` move with
    /// the `TADC` blobs they embed.
    #[test]
    fn envelope_formats_encode_to_golden_bytes() {
        use causaltad::{state_to_bytes, ScorerState};
        use tad_serve::{delta_to_bytes, image_to_bytes, FleetDelta, FleetImage, SessionRecord};
        let state = ScorerState::from_parts(vec![0.25, -1.5, 3.0], 1.25, 2.5, -0.75, Some(4), 2, 1);
        let record = |id: u64| SessionRecord {
            id,
            state: state.clone(),
            pending: vec![7, 9],
            ending: id % 2 == 1,
            idle_micros: 1000 * id,
        };
        let image = FleetImage { num_shards: 3, sessions: vec![record(1), record(2)] };
        let delta = FleetDelta {
            base_epoch: 4,
            seq: 2,
            num_shards: 3,
            removed: vec![3, 9],
            sessions: vec![record(5)],
        };
        let digest = |blobs: Vec<Bytes>| {
            tad_codec::checksum64(&blobs.iter().flat_map(|b| b.to_vec()).collect::<Vec<u8>>())
        };
        let requests = sample_requests().iter().map(request_to_bytes).collect();
        let responses = sample_responses().iter().map(response_to_bytes).collect();
        assert_eq!(digest(requests), 0xe54d_c6f7_3a90_4a60, "TADN requests");
        assert_eq!(digest(responses), 0xad37_2e28_9b1f_e958, "TADN responses");
        assert_eq!(digest(vec![state_to_bytes(&state)]), 0xb928_c361_3895_6f7b, "TADC");
        assert_eq!(digest(vec![image_to_bytes(&image)]), 0xbf91_925a_3e94_36a1, "TADF");
        assert_eq!(digest(vec![delta_to_bytes(&delta)]), 0x3215_7ce8_d5f7_58a3, "TADD");
        let metrics = snapshot_to_bytes(&sample_metrics());
        assert_eq!(digest(vec![metrics]), 0x4f5e_c4a9_59c6_f19b, "TADM");
    }
}
