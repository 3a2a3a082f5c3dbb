//! The common interface all detectors (baselines and CausalTAD wrappers)
//! implement, so the evaluation harness can treat them uniformly.

use tad_autodiff::train::Schedule;
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

/// A trajectory anomaly detector. Scores are *higher for more anomalous*
/// trajectories; only the ranking matters for ROC/PR-AUC.
///
/// `Send` is required so experiment harnesses can train several detectors
/// on worker threads.
pub trait Detector: Send {
    /// Display name used in result tables.
    fn name(&self) -> &'static str;

    /// Fits the detector on normal training trajectories.
    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]);

    /// Anomaly score after observing only the first `prefix_len` segments
    /// (the SD pair is always known — it is the ride-hailing order).
    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64;

    /// Anomaly score of the complete trajectory.
    fn score(&self, traj: &Trajectory) -> f64 {
        self.score_prefix(traj, traj.len())
    }
}

/// Shared hyper-parameters for the learning-based baselines, kept aligned
/// with CausalTAD's configuration so comparisons are fair.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Token embedding width.
    pub embed_dim: usize,
    /// GRU hidden width.
    pub hidden_dim: usize,
    /// Latent width for variational models.
    pub latent_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories per optimiser step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f64,
    /// Number of departure-time slots (used by DeepTEA).
    pub num_time_slots: usize,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            embed_dim: 24,
            hidden_dim: 48,
            latent_dim: 24,
            epochs: 12,
            batch_size: 8,
            lr: 1e-3,
            grad_clip: 5.0,
            num_time_slots: 4,
            seed: 0,
        }
    }
}

impl BaselineConfig {
    /// What the shared optimisation loop reads of this configuration.
    pub(crate) fn schedule(&self) -> Schedule {
        Schedule { epochs: self.epochs, batch_size: self.batch_size, grad_clip: self.grad_clip }
    }

    /// Tiny configuration for unit tests.
    pub fn test_scale() -> Self {
        BaselineConfig {
            embed_dim: 12,
            hidden_dim: 20,
            latent_dim: 12,
            epochs: 3,
            ..Default::default()
        }
    }
}
