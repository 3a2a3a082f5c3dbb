//! # tad-net
//!
//! Network ingest front-end for the `tad-serve` fleet engine: a versioned,
//! length-prefixed binary wire protocol (`TADN`), a concurrent TCP server,
//! and a blocking client — the layer that turns the CausalTAD reproduction
//! from a library into a deployable *online* detection service, where many
//! producers stream trip telemetry into one scoring process and get
//! per-segment anomaly scores pushed back as the trips unfold.
//!
//! ## Wire format
//!
//! Every frame is one standard workspace envelope (see
//! [`tad_codec::envelope`]), little-endian throughout:
//!
//! | Offset | Size | Field |
//! |---|---|---|
//! | 0 | 4 | magic `TADN` |
//! | 4 | 2 | version (`u16`, currently 1) |
//! | 6 | 8 | payload length (`u64`) |
//! | 14 | n | payload: tag byte + body |
//! | 14+n | 8 | FNV-1a 64 checksum of the payload |
//!
//! Requests (client→server) use tags `0x01..=0x0F`:
//! [`Request::TripStart`] (0x01), [`Request::Segment`] (0x02),
//! [`Request::TripEnd`] (0x03), [`Request::Flush`] (0x04),
//! [`Request::SnapshotRequest`] (0x05), [`Request::MetricsRequest`]
//! (0x06), [`Request::DeltaRequest`] (0x07), [`Request::Install`]
//! (0x08), [`Request::Drain`] (0x09). Responses (server→client) use
//! `0x10..=0x1F`: [`Response::Score`] (0x10), [`Response::TripComplete`]
//! (0x11), [`Response::Stats`] (0x12), [`Response::Error`] (0x13),
//! [`Response::Snapshot`] (0x14), [`Response::Metrics`] (0x15),
//! [`Response::PolicyNotice`] (0x16), [`Response::Delta`] (0x17),
//! [`Response::Installed`] (0x18), [`Response::Drained`] (0x19).
//! Decoding is total — hostile bytes produce typed [`FrameError`]s, never
//! panics — and readers refuse frames longer than their cap *before*
//! allocating.
//!
//! ## Semantics
//!
//! * Ingest is **pipelined**: producers fire `TripStart`/`Segment`/
//!   `TripEnd` without waiting; the server pushes a `Score` frame per
//!   scored segment (in per-trip order: the segment, its score and its
//!   two score terms, each sent once) and a `TripComplete` (totals and
//!   segment count) when the trip leaves the engine, routed to the
//!   connection that started the trip.
//! * **Backpressure is explicit**: when the engine's bounded ingest queue
//!   is full, the event is *not* buffered server-side — the producer gets
//!   [`ErrorCode::Backpressure`] naming the trip and re-sends it before
//!   any later event for that trip (see the pacing contract on
//!   [`ErrorCode::Backpressure`]).
//! * `Flush` is a **quiesce barrier**: its `Stats` reply is sent only
//!   after everything accepted earlier has been scored and its responses
//!   queued ahead — the hook that makes network scoring testably
//!   deterministic.
//! * `SnapshotRequest` serves a whole [`tad_serve::FleetImage`] over the
//!   wire for **remote warm restart**: feed the blob to
//!   [`NetServerBuilder::resume`] on another host and scoring continues
//!   bit-identically.
//! * `MetricsRequest` serves the server's whole
//!   [`tad_metrics::MetricsSnapshot`] — latency histograms and counters
//!   for the engine (`serve.*`) and the network layer (`net.*`), one
//!   shared registry — so an operator (or the `tad-router` fan-in, which
//!   merges every backend's reply into one fleet view) scrapes a single
//!   frame.
//! * The **availability tier** speaks three admin barriers:
//!   `DeltaRequest` serves the next increment of the engine's checkpoint
//!   chain (a `TADD` blob; see [`tad_serve::FleetDelta`]), `Install`
//!   seeds a *running* engine with a fleet image (failover restore /
//!   handoff target), and `Drain` captures-and-removes every live
//!   session without firing completions (handoff source). The [`Client`]
//!   can also reconnect through transient outages under a bounded
//!   [`RetryPolicy`] ([`Client::with_retry`]).
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tad_net::{Client, NetServer, Response};
//! # let model: causaltad::CausalTad = unimplemented!();
//!
//! let server = NetServer::builder(Arc::new(model)).bind("127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.trip_start(1, 0, 9, 3).unwrap();
//! client.segment(1, 0).unwrap();
//! client.trip_end(1).unwrap();
//! let stats = client.flush().unwrap(); // barrier: everything above is scored
//! while let Some(resp) = client.try_recv() {
//!     if let Response::Score(s) = resp {
//!         println!("trip {} segment {} score {:.3}", s.id, s.segment, s.score);
//!     }
//! }
//! assert_eq!(stats.trips_completed, 1);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

mod client;
#[cfg(test)]
mod counting;
mod evloop;
mod frame;
mod front;
mod server;
mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use evloop::{Conn, EventSource, Interest, PollSource, PollWaker, ReadStatus, Readiness};
pub use frame::{
    peek_score, request_from_bytes, request_from_frame, request_into, request_to_bytes,
    response_from_bytes, response_from_frame, response_into, response_to_bytes, ErrorCode,
    FrameError, Request, Response, TripComplete, DEFAULT_MAX_FRAME, FRAME_MAGIC, FRAME_VERSION,
    MAX_ERROR_DETAIL,
};
pub use front::{
    ConnectionStats, FrontCounters, FrontDoor, FrontEvent, FrontListener, FrontShared, NetConfig,
    NetStats, READ_BUDGET,
};
pub use server::{EventLoop, IngestCore, NetError, NetServer, NetServerBuilder};
pub use wire::{read_response, write_request, FrameAssembler, RecvError};
