//! # tad-trajsim
//!
//! Confounded trajectory simulator for the CausalTAD reproduction
//! (ICDE 2024). The paper's datasets are proprietary DiDi taxi trajectories;
//! this crate replaces them with a generator whose data-generating process
//! **is the paper's structural causal model** (Fig. 2a):
//!
//! * [`preference`] — the hidden confounder `E`: a per-segment popularity
//!   field (road class + POI hotspots + noise) with per-time-slot
//!   congestion.
//! * [`sd`] — `E → C`: in-distribution SD pairs sampled proportional to
//!   popularity; OOD pairs sampled uniformly.
//! * [`routing`] — `C → T` and `E → T`: a random-utility route-choice model
//!   minimising preference-weighted perceived cost.
//! * [`anomaly`] — the paper's Detour and Switch anomaly generators
//!   (§VI-A2), implemented on the road network.
//! * [`generator`] — one-call generation of a [`generator::City`] with all
//!   five splits (train / ID / OOD / detour / switch).
//! * [`codec`] — compact binary persistence of datasets.
//! * [`corruption`] — seeded, replayable fault-model transforms
//!   (duplicate / reorder / drop / jitter / teleport) that turn any clean
//!   dataset into hostile telemetry for the serving-layer sanitization
//!   policies.
//!
//! Because `E` is explicit here, experiments can verify not only *that*
//! CausalTAD beats the baselines out of distribution, but that it does so
//! *for the reason the paper claims* (compensation of popularity bias).

pub mod anomaly;
pub mod codec;
pub mod corruption;
mod dataset;
pub mod generator;
pub mod preference;
pub mod routing;
pub mod sd;
pub mod stats;

pub use corruption::{corrupt_dataset, CorruptionConfig};
pub use dataset::{CityDatasets, Label, SdPair, Trajectory};
pub use generator::{generate_city, City, CityConfig};
