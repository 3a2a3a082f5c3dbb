//! A fitted CausalTAD's Eq. 10 terms, per trip. Eq. 10 is `−log P(c, t) −
//! λ·Σ_i log E[1/P(t_i|e_i)]`, so the full score at any λ (Fig. 8) and the
//! TG-VAE and RP-VAE ablations (Table III) are views of the sums one
//! scoring pass per pool gives: no second fit, no λ to set.

use causaltad::CausalTad;
use tad_trajsim::Trajectory;

use crate::harness::{evaluate_scores, ComboResult};

/// The Eq. 10 terms of one trip under one fitted model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreParts {
    /// `−log P(c, t)`, the scorer's likelihood NLL: the TG-VAE-only score.
    pub nll: f64,
    /// `Σ_i log E[1/P(t_i|e_i)]`, the scorer's scaling sum.
    pub log_scale: f64,
    /// `Σ_i −ELBO(t_i)`: the stand-alone RP-VAE score.
    pub neg_elbo: f64,
}

impl ScoreParts {
    /// The parts of every trip of `pool`, read off the final states of
    /// one [`CausalTad::score_pool`] pass over the whole trips. Panics on
    /// an unfitted model.
    pub fn of(model: &CausalTad, pool: &[Trajectory]) -> Vec<ScoreParts> {
        let table = model.scaling().expect("fitted model has a scaling table");
        let states = model.score_pool(pool, Trajectory::len, |_, _| {});
        (states.iter().zip(pool))
            .map(|(state, t)| ScoreParts {
                nll: state.likelihood_nll(),
                log_scale: state.scale_log_sum(),
                neg_elbo: t.segments.iter().map(|s| -table.elbo(s.0, t.time_slot)).sum(),
            })
            .collect()
    }

    /// The Eq. 10 score at `lambda`: the float expression of
    /// [`causaltad::ScorerState::score`], so it has the bits of the model's
    /// own score at that λ.
    pub fn full(&self, lambda: f64) -> f64 {
        self.nll - lambda * self.log_scale
    }
}

/// ROC/PR-AUC of one view of the parts — a score per trip —, `normals`
/// (label false) against `anomalies` (label true).
pub fn evaluate_parts(
    normals: &[ScoreParts],
    anomalies: &[ScoreParts],
    view: impl Fn(&ScoreParts) -> f64,
) -> ComboResult {
    let scores = |pool: &[ScoreParts]| pool.iter().map(&view).collect::<Vec<f64>>();
    evaluate_scores(&scores(normals), &scores(anomalies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaltad::CausalTadConfig;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn score_parts_are_the_scorers_digits() {
        let city = generate_city(&CityConfig::test_scale(500));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        let table = model.scaling().expect("fitted");
        let lambda = model.config().lambda;
        for pool in [&city.data.test_id, &city.data.detour] {
            let parts = ScoreParts::of(&model, pool);
            assert_eq!(parts.len(), pool.len());
            for (p, t) in parts.iter().zip(pool) {
                assert!(p.nll.is_finite() && p.log_scale.is_finite() && p.neg_elbo.is_finite());
                assert_eq!(p.full(lambda).to_bits(), model.score(t).to_bits());
                assert_eq!(p.nll.to_bits(), model.score_tg_only(t).to_bits());
                // The RP-VAE ablation's score as its detector computed it.
                let n = t.len().clamp(1, t.len());
                let rp_only: f64 =
                    t.segments[..n].iter().map(|s| -table.elbo(s.0, t.time_slot)).sum();
                assert_eq!(p.neg_elbo.to_bits(), rp_only.to_bits());
                // Fig. 8's grid, against the scorer's final state.
                let sd = t.sd_pair();
                let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
                for s in &t.segments {
                    scorer.push(s.0);
                }
                let state = scorer.state();
                for lambda in [0.0, 0.01, 0.05, 0.1, 0.5, 1.0] {
                    assert_eq!(p.full(lambda).to_bits(), state.score(lambda).to_bits());
                }
            }
            assert_ne!(parts[0].full(0.0), parts[0].full(1.0), "λ weighs a nonzero term");
        }
    }
}
