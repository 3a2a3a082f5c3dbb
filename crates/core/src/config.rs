//! Model and training configuration.

/// Hyper-parameters of CausalTAD.
///
/// Paper defaults (§VI-A5): hidden dimension 128, 200 epochs, initial
/// learning rate 0.01, λ = 0.1 after grid search. The defaults here are
/// scaled for CPU-only synthetic cities; `paper_scale` restores dimensions
/// closer to the paper's.
#[derive(Clone, Debug)]
pub struct CausalTadConfig {
    /// Road-segment embedding width (`E_c`, `E_r`, `E_s`).
    pub embed_dim: usize,
    /// GRU/MLP hidden width (`d` in the paper).
    pub hidden_dim: usize,
    /// Latent width of the TG-VAE posterior `R`.
    pub latent_dim: usize,
    /// Latent width of the RP-VAE posterior `E_i`.
    pub rp_latent_dim: usize,
    /// Balance λ between likelihood and scaling factor (Eq. 10).
    pub lambda: f64,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Trajectories per optimiser step, packed into one tape pass with
    /// row-stacked hidden states.
    pub batch_size: usize,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f64,
    /// Monte-Carlo samples when precomputing scaling factors (§V-D).
    pub scaling_mc_samples: usize,
    /// §V-E.3 future-work extension: factorise the scaling factor per
    /// `(segment, time slot)` instead of per segment.
    pub time_factorised_scaling: bool,
    /// Number of departure-time slots (must match the dataset).
    pub num_time_slots: usize,
    /// Ablation: drop the SD decoder (invites posterior collapse).
    pub disable_sd_decoder: bool,
    /// Share one segment-embedding table between the SD encoder and the
    /// trajectory decoder (ablation; the paper and this implementation
    /// default to separate `E_c`/`E_r` tables, which the `ablation_design`
    /// experiment confirms is slightly better out of distribution).
    pub tie_sd_embedding: bool,
    /// Include `-log P(c|r)` (the SD decoder's reconstruction) in the
    /// anomaly score. The SD decoder's stated purpose is preventing
    /// posterior collapse during training; for *unseen* SD pairs its
    /// reconstruction NLL is a large constant unrelated to route quality,
    /// so scoring without it is more robust out of distribution.
    pub score_includes_sd_nll: bool,
    /// Ablation: decode over the full vocabulary instead of the road
    /// network's successor sets.
    pub disable_road_constraint: bool,
    /// Parameter-init and training-shuffle seed.
    pub seed: u64,
}

impl Default for CausalTadConfig {
    fn default() -> Self {
        CausalTadConfig {
            embed_dim: 24,
            hidden_dim: 48,
            latent_dim: 24,
            rp_latent_dim: 16,
            lambda: 0.1,
            lr: 1e-3,
            epochs: 12,
            batch_size: 8,
            grad_clip: 5.0,
            scaling_mc_samples: 16,
            time_factorised_scaling: false,
            num_time_slots: 4,
            disable_sd_decoder: false,
            tie_sd_embedding: false,
            score_includes_sd_nll: false,
            disable_road_constraint: false,
            seed: 0,
        }
    }
}

impl CausalTadConfig {
    /// Dimensions closer to the paper's (d = 128); substantially slower on
    /// CPU.
    pub fn paper_scale() -> Self {
        CausalTadConfig {
            embed_dim: 64,
            hidden_dim: 128,
            latent_dim: 64,
            rp_latent_dim: 32,
            epochs: 50,
            ..Default::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn test_scale() -> Self {
        CausalTadConfig {
            embed_dim: 12,
            hidden_dim: 20,
            latent_dim: 12,
            rp_latent_dim: 8,
            epochs: 4,
            scaling_mc_samples: 8,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = CausalTadConfig::default();
        assert!(cfg.lambda > 0.0 && cfg.lambda < 1.0);
        assert!(cfg.hidden_dim >= cfg.latent_dim);
        assert!(cfg.epochs > 0 && cfg.batch_size > 0);
    }

    #[test]
    fn paper_scale_is_larger() {
        let quick = CausalTadConfig::default();
        let paper = CausalTadConfig::paper_scale();
        assert!(paper.hidden_dim > quick.hidden_dim);
        assert_eq!(paper.hidden_dim, 128);
    }
}
