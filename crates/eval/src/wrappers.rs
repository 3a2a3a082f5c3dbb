//! The [`Detector`] adapter for CausalTAD, so the harness can mix it with
//! the baselines in one table. Its ablation rows and λ sweep are not
//! detectors: they are views of one fitted model's
//! [`crate::parts::ScoreParts`].

use std::sync::Arc;

use causaltad::{CausalTad, CausalTadConfig};
use tad_baselines::Detector;
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

/// Adapter implementing [`Detector`] on top of [`CausalTad`]: the full
/// Eq. 10 score at the configured λ. The fitted model is shared: an
/// engine serving it holds the same one.
pub struct CausalTadDetector {
    cfg: CausalTadConfig,
    model: Option<Arc<CausalTad>>,
}

impl CausalTadDetector {
    /// An unfitted CausalTAD.
    pub fn new(cfg: CausalTadConfig) -> Self {
        CausalTadDetector { cfg, model: None }
    }

    /// A detector scoring with an already fitted model.
    pub fn from_fitted(model: CausalTad) -> Self {
        CausalTadDetector { cfg: model.config().clone(), model: Some(Arc::new(model)) }
    }

    /// Access to the trained model (e.g. for per-segment traces).
    pub fn model(&self) -> Option<&Arc<CausalTad>> {
        self.model.as_ref()
    }

    fn fitted(&self) -> &CausalTad {
        self.model.as_ref().expect("CausalTAD: call fit() before scoring")
    }
}

impl Detector for CausalTadDetector {
    fn name(&self) -> &'static str {
        "CausalTAD"
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        let mut model = CausalTad::new(net, self.cfg.clone());
        model.fit(train);
        self.model = Some(Arc::new(model));
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        self.fitted().score_prefix(traj, prefix_len)
    }

    /// One [`CausalTad::score_pool`] pass over the whole pool.
    fn score_pool(&self, pool: &[Trajectory], observed_ratio: f64) -> Vec<f64> {
        let model = self.fitted();
        let prefix_len = |t: &Trajectory| t.observed_prefix(observed_ratio).len();
        let states = model.score_pool(pool, prefix_len, |_, _| {});
        states.iter().map(|s| s.score(model.config().lambda)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parts::ScoreParts;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn all_variants_fit_and_score() {
        let city = generate_city(&CityConfig::test_scale(500));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let mut det = CausalTadDetector::new(cfg);
        det.fit(&city.net, &city.data.train);
        let t = &city.data.test_id[0];
        let full = det.score(t);
        assert!(full.is_finite(), "CausalTAD: {full}");
        // The TG-VAE and RP-VAE rows are views of the fitted model's parts.
        let p = ScoreParts::of(det.model().expect("fitted"), std::slice::from_ref(t))[0];
        assert!(p.nll.is_finite(), "TG-VAE: {}", p.nll);
        assert!(p.neg_elbo.is_finite(), "RP-VAE: {}", p.neg_elbo);
    }

    #[test]
    fn lambda_override_changes_scores() {
        let city = generate_city(&CityConfig::test_scale(501));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let lambda = cfg.lambda;
        let mut det = CausalTadDetector::new(cfg);
        det.fit(&city.net, &city.data.train);
        let t = &city.data.test_id[0];
        let p = ScoreParts::of(det.model().expect("fitted"), std::slice::from_ref(t))[0];
        assert_eq!(p.full(lambda).to_bits(), det.score(t).to_bits());
        let s0 = p.full(0.0);
        let s1 = p.full(1.0);
        assert_ne!(s0, s1);
    }
}
