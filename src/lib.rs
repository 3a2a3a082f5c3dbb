//! # causaltad-suite
//!
//! Umbrella crate for the CausalTAD reproduction. It re-exports every
//! workspace crate under one roof so the examples and integration tests can
//! exercise the full pipeline with a single dependency:
//!
//! * [`codec`] — the byte layer at the bottom of the graph: the checksummed
//!   envelope every binary format is sealed in and the one bounds-checked
//!   reader every decoder reads through.
//! * [`autodiff`] — tensor + reverse-mode autodiff substrate.
//! * [`roadnet`] — road-network graph, city generator, Dijkstra/Yen, and
//!   the spatial index and HMM map matching that stand for the paper's
//!   preprocessing (Definition 2). Every city is generated as segment
//!   walks and nothing ingests GPS: the `map_matching` example and the
//!   `substrate` bench's map-matching row are their only callers.
//! * [`trajsim`] — confounded trajectory simulator and anomaly generators.
//! * [`core`] — the CausalTAD model itself (TG-VAE + RP-VAE + online
//!   detector).
//! * [`baselines`] — the seven baselines from the paper.
//! * [`eval`] — metrics, experiment harness, standard synthetic cities.
//! * [`metrics`] — lock-free latency histograms, the counter/gauge
//!   registry shared by every serving tier, and the `TADM` snapshot
//!   codec behind the wire `MetricsRequest`.
//! * [`serve`] — the concurrent fleet-scoring engine multiplexing
//!   thousands of live online-scoring sessions with micro-batched model
//!   stepping.
//! * [`net`] — the TCP ingest front-end over the fleet engine: `TADN`
//!   wire protocol, concurrent server, blocking client.
//! * [`router`] — the cross-process sharding tier: a `TADN` router
//!   hash-partitioning trips across N `tad-net` backends, with fleet-wide
//!   flush barriers and merged snapshots for N→M warm restarts.
//!
//! See `README.md` for a tour, `docs/ARCHITECTURE.md` for the cross-crate
//! picture, `examples/quickstart.rs` for a minimal end-to-end run,
//! `examples/fleet_streaming.rs` for the serving layer,
//! `examples/network_fleet.rs` for scoring over the network, and
//! `examples/cluster_fleet.rs` for a routed multi-backend cluster with an
//! N→M warm restart.

pub use causaltad as core;
pub use tad_autodiff as autodiff;
pub use tad_baselines as baselines;
pub use tad_codec as codec;
pub use tad_eval as eval;
pub use tad_metrics as metrics;
pub use tad_net as net;
pub use tad_roadnet as roadnet;
pub use tad_router as router;
pub use tad_serve as serve;
pub use tad_trajsim as trajsim;
