//! `tad-metrics`: observability primitives for the CausalTAD serving
//! tiers.
//!
//! The crate supplies three layers, all dependency-free beyond the
//! workspace envelope:
//!
//! * [`Histogram`] — a lock-free log-linear (HDR-style) latency
//!   histogram. Hot paths call [`Histogram::record`] with a nanosecond
//!   value; it costs a few relaxed `fetch_add`s, so shard scoring loops,
//!   socket readers, and router forwarders can all record per-event
//!   without contending.
//! * [`Registry`] — named counters, gauges, and histograms. Handles are
//!   `Arc`s cached at construction time; the registry lock is never on a
//!   per-event path. [`Registry::snapshot`] produces a
//!   [`MetricsSnapshot`] whose [`MetricsSnapshot::merged`] is exactly
//!   associative — the router merges backend snapshots over the wire
//!   into the same bits an in-process aggregation yields.
//! * The `TADM` codec ([`snapshot_to_bytes`] / [`snapshot_from_bytes`])
//!   — a versioned, checksummed binary format riding the workspace
//!   envelope.
//!
//! `tad-serve`, `tad-net`, and `tad-router` each register their tier's
//! metrics under a `serve.` / `net.` / `router.` name prefix; the TADN
//! protocol's `MetricsRequest` frame pulls one merged fleet view through
//! a router.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod hist;
mod registry;

pub use codec::{
    snapshot_from_bytes, snapshot_to_bytes, MetricsCodecError, METRICS_MAGIC, METRICS_VERSION,
};
pub use hist::{DeferredHistogram, Histogram, HistogramSnapshot, BUCKETS, SUB_BITS, SUB_COUNT};
pub use registry::{Counter, Gauge, MetricEntry, MetricValue, MetricsSnapshot, Registry};
