//! # tad-router
//!
//! The cross-process sharding tier of the CausalTAD serving stack: a
//! standalone router that speaks the same `TADN` wire protocol as a
//! single [`tad-net`](tad_net) server on its front door and consistently
//! hash-partitions trips across N backend `tad-net` servers behind it —
//! the layer that takes the fleet-scoring engine past the single-process
//! ceiling.
//!
//! ```text
//!                         ┌─────────────┐     ┌──────────────────────┐
//!  producers ──TADN──────▶│  tad-router │────▶│ tad-net ▸ FleetEngine │  backend 0
//!  (tad_net::Client,      │             │     ├──────────────────────┤
//!   unchanged)            │ backend_for │────▶│ tad-net ▸ FleetEngine │  backend 1
//!                ◀────────│  (id, N)    │     ├──────────────────────┤
//!   Score / TripComplete  │   fan-in    │────▶│ tad-net ▸ FleetEngine │  backend N-1
//!   / Stats / Snapshot    └─────────────┘     └──────────────────────┘
//! ```
//!
//! ## Invariants
//!
//! * **Trip stickiness** — [`backend_for`] is a pure function of the trip
//!   id and the fleet size (jump consistent hashing over a mixed id), so
//!   every event of a trip reaches the same backend in per-trip order for
//!   the life of the trip, across router restarts, with no shared table
//!   to drift. Routed scoring is therefore **bit-identical** to a single
//!   in-process engine fed the same per-trip event streams (proven by the
//!   repository's `tests/router.rs` battery).
//! * **Fan-in ownership** — `Score`, `TripComplete`, and per-trip `Error`
//!   (including `Backpressure`) replies are routed to the front
//!   connection that owns the trip, exactly as a single `tad-net` server
//!   would.
//! * **Fleet-wide barriers** — `Flush` quiesces *all* backends and
//!   answers with aggregated stats ([`tad_serve::FleetSnapshot::merged`])
//!   only after every response caused by earlier events is queued ahead;
//!   `SnapshotRequest` returns the [`tad_serve::FleetImage::merge`] of
//!   every backend's capture.
//! * **Snapshot re-partitioning** — [`split_image`] cuts a merged capture
//!   back into per-backend seeds with the same [`backend_for`] function,
//!   so an N-server fleet restores onto M servers and each backend
//!   resumes exactly the sessions whose future events will be routed to
//!   it ([`tad_serve::FleetEngine::restore`] then re-partitions across
//!   each engine's internal shards).
//! * **Partial failure** — without standbys, a dead backend surfaces
//!   typed `Error{EngineClosed}` frames to the front connections whose
//!   trips it owned and fails in-flight barriers; trips on healthy
//!   backends keep scoring without a stall.
//! * **Self-healing** — with standby backends
//!   ([`RouterServerBuilder::standbys`]) the router keeps a bounded
//!   recovery journal per active link (last checkpoint image + every
//!   ingest frame since the cut, maintained by
//!   [`RouterServer::checkpoint`] with cheap `TADD` delta captures).
//!   When an active backend dies, a standby is promoted: journal base
//!   installed, tail replayed behind flush fences, partition map flipped
//!   atomically. A per-trip delivered high-water mark suppresses
//!   duplicate scores, so producers observe a **bit-identical** score
//!   stream — every score exactly once, in order — and in-flight ingest
//!   rides out the failover *parked* (producers are not read, frames
//!   already read wait in arrival order) instead of erroring.
//!   [`RouterServer::handoff`] (move one partition to a standby) and
//!   [`RouterServer::rebalance`] (re-split the fleet onto M backends)
//!   reuse the same drain → install → flip machinery, invisible to
//!   producers. Barriers arriving mid-failover wait for the new map or
//!   fail typed — never hang, never answer from a half-flipped fleet.
//! * **One loop** — all of the above runs on one thread, [`RouterLoop`]:
//!   a [`tad_net::FrontDoor`] for the producers with every backend link
//!   registered on the same readiness source. It owns the links, the
//!   partition map, the trip table and the barriers as plain fields;
//!   admin calls and the failover driver reach them only through
//!   closures posted to the loop. It is generic over the readiness
//!   source and transport, so the repository's deterministic harness
//!   runs it over scripted I/O.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tad_net::{Client, NetServer, Response};
//! use tad_router::RouterServer;
//! # let model: Arc<causaltad::CausalTad> = unimplemented!();
//!
//! // Two independent scoring backends (normally separate processes).
//! let backend_a = NetServer::builder(Arc::clone(&model)).bind("127.0.0.1:0").unwrap();
//! let backend_b = NetServer::builder(Arc::clone(&model)).bind("127.0.0.1:0").unwrap();
//!
//! // The router in front of them; producers cannot tell it apart from a
//! // single tad-net server.
//! let router = RouterServer::builder()
//!     .backend(backend_a.local_addr())
//!     .backend(backend_b.local_addr())
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//!
//! let mut client = Client::connect(router.local_addr()).unwrap();
//! client.trip_start(1, 0, 9, 3).unwrap();
//! client.segment(1, 0).unwrap();
//! client.trip_end(1).unwrap();
//! let stats = client.flush().unwrap(); // fleet-wide barrier
//! assert_eq!(stats.trips_completed, 1);
//! while let Some(Response::Score(s)) = client.try_recv() {
//!     println!("trip {} segment {} score {:.3}", s.id, s.segment, s.score);
//! }
//! router.shutdown();
//! ```

#![deny(missing_docs)]

mod backend;
#[cfg(test)]
#[path = "../../net/src/counting.rs"]
mod counting;
mod evloop;
mod journal;
mod partition;
mod server;

pub use evloop::RouterLoop;
pub use partition::{backend_for, split_image};
pub use server::{
    CheckpointStats, HandoffStats, RouterAdminError, RouterConfig, RouterError, RouterServer,
    RouterServerBuilder, RouterStats,
};
