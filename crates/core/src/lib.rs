//! # causaltad
//!
//! From-scratch Rust implementation of **CausalTAD** (Li et al., ICDE
//! 2024): a causal implicit generative model for debiased online trajectory
//! anomaly detection.
//!
//! Existing detectors estimate the conditional probability `P(T | C)` of a
//! trajectory `T` given its source-destination pair `C` and fail on unseen
//! SD pairs, because an unobserved road-preference confounder `E` causes
//! both `C` and `T`. CausalTAD instead estimates the interventional
//! `P(T | do(C))`, decomposed (Eq. 2) into
//!
//! * a **likelihood** term `P(c, t)`, estimated by the [`TgVae`] — an SD
//!   conditioned VAE with a road-constrained autoregressive decoder and an
//!   SD decoder that prevents posterior collapse; and
//! * a **scaling factor** `E_{e~P(E|c,t)}[1 / P(c|e)]`, factorised over
//!   road segments and estimated by the [`RpVae`], then precomputed into a
//!   [`ScalingTable`] so online updates are O(1).
//!
//! The assembled detector is [`CausalTad`]; streaming detection goes
//! through [`OnlineScorer`].
//!
//! ```no_run
//! use causaltad::{CausalTad, CausalTadConfig};
//! use tad_trajsim::{generate_city, CityConfig};
//!
//! let city = generate_city(&CityConfig::test_scale(1));
//! let mut model = CausalTad::new(&city.net, CausalTadConfig::default());
//! model.fit(&city.data.train);
//!
//! let trip = &city.data.test_id[0];
//! let score = model.score(trip); // higher = more anomalous
//! # let _ = score;
//! ```
//!
//! ## Module map (paper section → code)
//!
//! | Paper | Module |
//! |---|---|
//! | §IV-B TG-VAE likelihood, road-constrained decoder head | [`TgVae`] |
//! | §IV-C RP-VAE causal prior / confounder model | [`RpVae`] |
//! | §IV-D scaling factor `E[1/P(t_i\|e_i)]` | [`ScalingTable`] |
//! | §V-D O(1) online scoring | [`OnlineScorer`] / [`ScorerState`] |
//! | Eq. 10–11 debiased score assembly | [`ScorerState::score`] |
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the cross-crate
//! picture (autodiff → core → serve → net).

#![deny(missing_docs)]

pub mod calibrate;
mod codec;
mod config;
mod model;
mod online;
mod rpvae;
mod scaling;
mod tgvae;
mod train;

pub use codec::{
    model_from_bytes, model_to_bytes, put_trace, read_trace, state_from_bytes, state_to_bytes,
    ModelCodecError, StateCodecError,
};
pub use config::CausalTadConfig;
pub use model::CausalTad;
pub use online::{OnlineError, OnlineScorer, ScorerState, SegmentTrace};
pub use rpvae::RpVae;
pub use scaling::ScalingTable;
pub use tgvae::{StepCache, TgVae, OFF_GRAPH_NLL};
pub use train::{TrainReport, Trainer};
