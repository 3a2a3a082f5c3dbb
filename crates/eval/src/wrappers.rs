//! [`Detector`] adapters for CausalTAD and its ablations, so the harness
//! can mix them with the baselines in one table.

use causaltad::{CausalTad, CausalTadConfig};
use tad_baselines::Detector;
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

/// Which scoring path of the trained CausalTAD model to expose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalTadVariant {
    /// Full Eq. 10 score (likelihood + λ-weighted scaling factor).
    Full,
    /// TG-VAE likelihood only (λ = 0) — ablation row "TG-VAE".
    TgOnly,
    /// RP-VAE segment likelihoods only — ablation row "RP-VAE".
    RpOnly,
}

/// Adapter implementing [`Detector`] on top of [`CausalTad`].
#[derive(Clone)]
pub struct CausalTadDetector {
    cfg: CausalTadConfig,
    variant: CausalTadVariant,
    model: Option<CausalTad>,
}

impl CausalTadDetector {
    /// Full CausalTAD.
    pub fn new(cfg: CausalTadConfig) -> Self {
        CausalTadDetector { cfg, variant: CausalTadVariant::Full, model: None }
    }

    /// A specific scoring variant (for the ablation study).
    pub fn variant(cfg: CausalTadConfig, variant: CausalTadVariant) -> Self {
        CausalTadDetector { cfg, variant, model: None }
    }

    /// Access to the trained model (e.g. for per-segment traces).
    pub fn model(&self) -> Option<&CausalTad> {
        self.model.as_ref()
    }

    /// Replaces λ on the trained model without retraining (Fig. 8).
    pub fn set_lambda(&mut self, lambda: f64) {
        if let Some(m) = self.model.as_mut() {
            m.set_lambda(lambda);
        }
        self.cfg.lambda = lambda;
    }

    fn model_ref(&self) -> &CausalTad {
        self.model.as_ref().expect("CausalTAD: call fit() before scoring")
    }
}

impl Detector for CausalTadDetector {
    fn name(&self) -> &'static str {
        match self.variant {
            CausalTadVariant::Full => "CausalTAD",
            CausalTadVariant::TgOnly => "TG-VAE",
            CausalTadVariant::RpOnly => "RP-VAE",
        }
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        let mut model = CausalTad::new(net, self.cfg.clone());
        model.fit(train);
        self.model = Some(model);
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        let model = self.model_ref();
        match self.variant {
            CausalTadVariant::Full => model.score_prefix(traj, prefix_len),
            CausalTadVariant::TgOnly => {
                let sd = traj.sd_pair();
                let mut scorer = model.online(sd.source.0, sd.dest.0, traj.time_slot);
                let n = prefix_len.clamp(1, traj.len());
                for &seg in &traj.segments[..n] {
                    scorer.push(seg.0);
                }
                scorer.likelihood_nll()
            }
            CausalTadVariant::RpOnly => {
                let table = model.scaling().expect("fitted model has a scaling table");
                let n = prefix_len.clamp(1, traj.len());
                traj.segments[..n].iter().map(|s| -table.elbo(s.0, traj.time_slot)).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn all_variants_fit_and_score() {
        let city = generate_city(&CityConfig::test_scale(500));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        for variant in [CausalTadVariant::Full, CausalTadVariant::TgOnly, CausalTadVariant::RpOnly]
        {
            let mut det = CausalTadDetector::variant(cfg.clone(), variant);
            det.fit(&city.net, &city.data.train);
            let s = det.score(&city.data.test_id[0]);
            assert!(s.is_finite(), "{:?}: {s}", variant);
        }
    }

    #[test]
    fn variant_names() {
        let cfg = CausalTadConfig::test_scale();
        assert_eq!(CausalTadDetector::new(cfg.clone()).name(), "CausalTAD");
        assert_eq!(
            CausalTadDetector::variant(cfg.clone(), CausalTadVariant::TgOnly).name(),
            "TG-VAE"
        );
        assert_eq!(CausalTadDetector::variant(cfg, CausalTadVariant::RpOnly).name(), "RP-VAE");
    }

    #[test]
    fn lambda_override_changes_scores() {
        let city = generate_city(&CityConfig::test_scale(501));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let mut det = CausalTadDetector::new(cfg);
        det.fit(&city.net, &city.data.train);
        let t = &city.data.test_id[0];
        det.set_lambda(0.0);
        let s0 = det.score(t);
        det.set_lambda(1.0);
        let s1 = det.score(t);
        assert_ne!(s0, s1);
    }
}
