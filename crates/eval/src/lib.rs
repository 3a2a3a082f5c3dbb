//! # tad-eval
//!
//! Metrics, experiment harness, and standard workloads for the CausalTAD
//! reproduction:
//!
//! * [`metrics`] — ROC-AUC (Mann-Whitney) and PR-AUC (average precision),
//!   the paper's two metrics.
//! * [`cities`] — the two standard synthetic cities ("xian-s",
//!   "chengdu-s") in `Quick` and `Paper` scales.
//! * [`harness`] — dataset-combination evaluation, observed-ratio
//!   (online) evaluation, ID/OOD mixtures for the stability study, and a
//!   small ordered `parallel_map` for training several detectors at once.
//! * [`parts`] — [`parts::ScoreParts`], a fitted CausalTAD's Eq. 10 terms
//!   per trip from one scoring pass: Table III's three rows and Fig. 8's
//!   λ sweep are views of them, with no second fit and no λ to set.
//! * [`wrappers`] — [`wrappers::CausalTadDetector`] adapts [`causaltad`]
//!   to the shared [`tad_baselines::Detector`] trait.
//! * [`hostile`] — corruption × sanitization-policy AUC cells: corrupted
//!   streams scored through a policy-configured [`tad_serve::FleetEngine`],
//!   the evaluation behind the hostile-stream hardening work.
//! * [`report`] — Markdown/CSV table rendering for the experiment
//!   binaries.

pub mod cities;
pub mod harness;
pub mod hostile;
pub mod metrics;
pub mod parts;
pub mod report;
pub mod wrappers;
