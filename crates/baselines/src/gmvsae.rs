//! GM-VSAE baseline (Liu et al., ICDE 2020).
//!
//! A sequential VAE whose latent prior is a Gaussian *mixture* with `K`
//! learnable component means (unit covariance, uniform weights), so
//! different mixture components can capture different types of normal
//! routes. The KL term of the plain VAE is replaced by the single-sample
//! estimate `log q(z|x) − log p_mix(z)`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tad_autodiff::nn::{GaussianHead, Linear};
use tad_autodiff::train::TrainReport;
use tad_autodiff::{logsumexp, ParamStore, Tape, Tensor, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::detector::{BaselineConfig, Detector};
use crate::seq::{fit_store, tokens, SeqCore};

const LN_2PI: f32 = 1.837_877_1;

/// The GM-VSAE detector.
pub struct GmVsae {
    cfg: BaselineConfig,
    /// Number of mixture components ("route types").
    k: usize,
    inner: Option<Inner>,
}

struct Inner {
    store: ParamStore,
    core: SeqCore,
    head: GaussianHead,
    dec_init: Linear,
    /// `K x latent` mixture component means.
    mix_means: tad_autodiff::ParamId,
}

impl GmVsae {
    /// Creates an unfitted GM-VSAE with `k` mixture components.
    pub fn new(cfg: BaselineConfig, k: usize) -> Self {
        assert!(k >= 1);
        GmVsae { cfg, k, inner: None }
    }

    fn inner(&self) -> &Inner {
        self.inner.as_ref().expect("GM-VSAE: call fit() before scoring")
    }

    /// `log q(z|x) − log p_mix(z)` on the tape (single-sample KL estimate).
    #[allow(clippy::too_many_arguments)]
    fn kl_mixture(
        tape: &mut Tape,
        store: &ParamStore,
        mix_means: tad_autodiff::ParamId,
        z: Var,
        mu: Var,
        logvar: Var,
        k: usize,
        latent: usize,
    ) -> Var {
        // log q(z|x) = -0.5 * sum(ln 2π + logvar + (z-mu)^2 / var)
        let diff = tape.sub(z, mu);
        let sq = tape.mul(diff, diff);
        let neg_logvar = tape.scale(logvar, -1.0);
        let inv_var = tape.exp(neg_logvar);
        let ratio = tape.mul(sq, inv_var);
        let inner_sum0 = tape.add(logvar, ratio);
        let inner_sum = tape.add_scalar(inner_sum0, LN_2PI);
        let sum_q = tape.sum_all(inner_sum);
        let log_q = tape.scale(sum_q, -0.5);

        // log p_mix(z) = logsumexp_k(-0.5 ||z - mu_k||^2) - D/2 ln 2π - ln K
        let ones = tape.input(Tensor::full(k, 1, 1.0));
        let z_rep = tape.matmul(ones, z); // K x latent
        let means = tape.param(store, mix_means);
        let dk = tape.sub(z_rep, means);
        let dk_sq = tape.mul(dk, dk);
        let col = tape.input(Tensor::full(latent, 1, 1.0));
        let row_sums = tape.matmul(dk_sq, col); // K x 1
        let neg_half = tape.scale(row_sums, -0.5);
        let as_row = tape.reshape(neg_half, 1, k);
        let lse = tape.logsumexp_rows(as_row); // 1 x 1
        let log_p = tape.add_scalar(lse, -0.5 * latent as f32 * LN_2PI - (k as f32).ln());

        tape.sub(log_q, log_p)
    }

    /// Registers the parameters, initialised from the `cfg.seed` stream.
    fn init(&self, net: &RoadNetwork) -> Inner {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "gmv", net.num_segments(), &self.cfg, false, &mut rng);
        let head = GaussianHead::new(
            &mut store,
            "gmv.head",
            self.cfg.hidden_dim,
            self.cfg.latent_dim,
            &mut rng,
        );
        let dec_init = Linear::new(
            &mut store,
            "gmv.dec_init",
            self.cfg.latent_dim,
            self.cfg.hidden_dim,
            &mut rng,
        );
        // Spread the initial component means so they can specialise.
        let mix_means = store
            .add("gmv.mix_means", Tensor::randn(self.k, self.cfg.latent_dim, 0.0, 1.0, &mut rng));
        Inner { store, core, head, dec_init, mix_means }
    }

    /// One trajectory's `reconstruction + KL to the mixture`, the
    /// parameters of `inner` read from `store` — training holds them
    /// outside it while it runs.
    fn loss(
        &self,
        inner: &Inner,
        tape: &mut Tape,
        store: &ParamStore,
        t: &Trajectory,
        rng: &mut StdRng,
    ) -> Var {
        let (k, latent) = (self.k, self.cfg.latent_dim);
        let toks = tokens(t);
        let h = inner.core.encode(tape, store, &toks, t.time_slot);
        let (mu, logvar) = inner.head.forward(tape, store, h);
        let eps = Tensor::randn(1, latent, 0.0, 1.0, rng);
        let z = tape.gaussian_sample(mu, logvar, eps);
        let kl = Self::kl_mixture(tape, store, inner.mix_means, z, mu, logvar, k, latent);
        let h0_pre = inner.dec_init.forward(tape, store, z);
        let h0 = tape.tanh(h0_pre);
        let rec = inner.core.decode_nll(tape, store, h0, &toks, t.time_slot);
        tape.add(rec, kl)
    }

    /// Trains a fresh set of parameters on `train`.
    fn train(&self, net: &RoadNetwork, train: &[Trajectory]) -> (Inner, TrainReport) {
        let mut inner = self.init(net);
        let mut store = std::mem::take(&mut inner.store);
        let report = fit_store(&mut store, &self.cfg, train, |tape, store, chunk, rng| {
            self.loss(&inner, tape, store, chunk[0], rng)
        });
        inner.store = store;
        (inner, report)
    }

    /// Tape-free `log q − log p_mix` at `z = mu`.
    fn infer_kl_mixture(&self, mu: &[f32], logvar: &[f32]) -> f64 {
        let inner = self.inner();
        let latent = mu.len();
        // log q(mu|x): the quadratic term vanishes at z = mu.
        let log_q: f64 = logvar.iter().map(|&lv| -0.5 * (LN_2PI + lv) as f64).sum();
        let means = inner.store.value(inner.mix_means);
        let mut comp = Vec::with_capacity(self.k);
        for kk in 0..self.k {
            let mut d2 = 0.0f32;
            for (&m, &mean) in mu.iter().zip(means.row(kk)) {
                let d = m - mean;
                d2 += d * d;
            }
            comp.push(-0.5 * d2);
        }
        let log_p =
            logsumexp(&comp) as f64 - 0.5 * latent as f64 * LN_2PI as f64 - (self.k as f64).ln();
        log_q - log_p
    }
}

impl Detector for GmVsae {
    fn name(&self) -> &'static str {
        "GM-VSAE"
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        self.inner = Some(self.train(net, train).0);
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        let inner = self.inner();
        let toks = tokens(traj);
        let n = prefix_len.clamp(2.min(toks.len()), toks.len());
        let prefix = &toks[..n];
        let (core, store) = (&inner.core, &inner.store);
        let p = core.infer_posterior(store, &inner.head, &inner.dec_init, prefix, traj.time_slot);
        let kl = self.infer_kl_mixture(&p.mu, &p.logvar);
        core.infer_decode_nll(store, &p.h0, prefix, traj.time_slot) + kl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reference::{param_bits, train_loop, trained_digest};
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn trained_bits_match_their_checked_in_digests() {
        // Test city 7: `tests/cities.rs` pins its bytes.
        let city = generate_city(&CityConfig::test_scale(7));
        let mut m = GmVsae::new(BaselineConfig::test_scale(), 4);
        m.fit(&city.net, &city.data.train);
        let scores = city.data.test_id.iter().map(|t| m.score(t));
        assert_eq!(
            trained_digest(&m.inner().store, scores),
            "params 0xe89efdc2d961acff scores 0xe9a7024d58463fb9"
        );
    }

    #[test]
    fn fit_matches_the_parent_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(433));
        // The second learning rate overshoots: an early epoch is the best
        // one, so the restore is exercised.
        for lr in [BaselineConfig::test_scale().lr, 1.0] {
            let cfg = BaselineConfig { lr, ..BaselineConfig::test_scale() };
            let m = GmVsae::new(cfg.clone(), 3);
            let mut reference = m.init(&city.net);
            let mut store = std::mem::take(&mut reference.store);
            let expected = train_loop(&mut store, &cfg, &city.data.train, |tape, store, t, rng| {
                m.loss(&reference, tape, store, t, rng)
            });
            let (inner, report) = m.train(&city.net, &city.data.train);
            assert_eq!(report.epoch_losses, expected, "lr {lr}");
            assert_eq!(param_bits(&inner.store), param_bits(&store), "lr {lr}");
        }
    }

    #[test]
    fn gmvsae_fits_and_separates() {
        let city = generate_city(&CityConfig::test_scale(430));
        let mut m = GmVsae::new(BaselineConfig::test_scale(), 3);
        m.fit(&city.net, &city.data.train);
        let mean = |ts: &[Trajectory]| -> f64 {
            ts.iter().map(|t| m.score(t)).sum::<f64>() / ts.len() as f64
        };
        assert!(mean(&city.data.detour) > mean(&city.data.test_id));
    }

    #[test]
    fn single_component_behaves_like_gaussian_prior() {
        let city = generate_city(&CityConfig::test_scale(431));
        let mut m = GmVsae::new(BaselineConfig::test_scale(), 1);
        m.fit(&city.net, &city.data.train);
        assert!(m.score(&city.data.test_id[0]).is_finite());
    }

    #[test]
    fn mixture_means_receive_gradient() {
        let city = generate_city(&CityConfig::test_scale(432));
        let cfg = BaselineConfig { epochs: 1, ..BaselineConfig::test_scale() };
        let mut m = GmVsae::new(cfg, 2);
        // Snapshot initial means by re-deriving them with the same seed.
        m.fit(&city.net, &city.data.train);
        let inner = m.inner.as_ref().unwrap();
        let means = inner.store.value(inner.mix_means);
        // After one epoch the means must be finite and non-degenerate.
        assert!(means.all_finite());
        assert!(means.data().iter().any(|&x| x != 0.0));
    }
}
