//! The variational sequence-autoencoder family: VSAE, β-VAE, DeepTEA.
//!
//! * **VSAE** — the basic VAE of Kingma & Welling with RNN encoder/decoder,
//!   the strongest simple baseline in the paper's OOD tables.
//! * **β-VAE** (Higgins et al., 2017) — the same model with the KL term
//!   weighted by β > 1 to encourage disentanglement.
//! * **DeepTEA** (Han et al., 2022) — time-aware: departure-slot embeddings
//!   are appended to every encoder/decoder input, letting the model capture
//!   time-dependent traffic conditions.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tad_autodiff::nn::{gaussian_kl, GaussianHead, Linear};
use tad_autodiff::train::TrainReport;
use tad_autodiff::{ParamStore, Tape, Tensor, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::detector::{BaselineConfig, Detector};
use crate::seq::{fit_store, tokens, SeqCore};

/// A variational sequence autoencoder (VSAE / β-VAE / DeepTEA).
pub struct Vsae {
    cfg: BaselineConfig,
    name: &'static str,
    /// KL weight (1 = VSAE, >1 = β-VAE).
    beta: f32,
    /// Appends time-slot embeddings to all inputs (DeepTEA).
    time_aware: bool,
    inner: Option<Inner>,
}

struct Inner {
    store: ParamStore,
    core: SeqCore,
    head: GaussianHead,
    dec_init: Linear,
}

impl Vsae {
    /// Basic VSAE.
    #[allow(clippy::self_named_constructors)]
    pub fn vsae(cfg: BaselineConfig) -> Self {
        Vsae { cfg, name: "VSAE", beta: 1.0, time_aware: false, inner: None }
    }

    /// β-VAE with the given KL weight (the paper's disentanglement probe).
    pub fn beta_vae(cfg: BaselineConfig, beta: f32) -> Self {
        assert!(beta > 0.0);
        Vsae { cfg, name: "BetaVAE", beta, time_aware: false, inner: None }
    }

    /// DeepTEA: time-conditioned VSAE.
    pub fn deeptea(cfg: BaselineConfig) -> Self {
        Vsae { cfg, name: "DeepTEA", beta: 1.0, time_aware: true, inner: None }
    }

    fn inner(&self) -> &Inner {
        self.inner.as_ref().expect("VSAE: call fit() before scoring")
    }
}

impl Vsae {
    /// Registers the parameters, initialised from the `cfg.seed` stream.
    fn init(&self, net: &RoadNetwork) -> Inner {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let core = SeqCore::new(
            &mut store,
            "vsae",
            net.num_segments(),
            &self.cfg,
            self.time_aware,
            &mut rng,
        );
        let head = GaussianHead::new(
            &mut store,
            "vsae.head",
            self.cfg.hidden_dim,
            self.cfg.latent_dim,
            &mut rng,
        );
        let dec_init = Linear::new(
            &mut store,
            "vsae.dec_init",
            self.cfg.latent_dim,
            self.cfg.hidden_dim,
            &mut rng,
        );
        Inner { store, core, head, dec_init }
    }

    /// One trajectory's `reconstruction + β·KL`, the parameters of `inner`
    /// read from `store` — training holds them outside it while it runs.
    fn loss(
        &self,
        inner: &Inner,
        tape: &mut Tape,
        store: &ParamStore,
        t: &Trajectory,
        rng: &mut StdRng,
    ) -> Var {
        let toks = tokens(t);
        let h = inner.core.encode(tape, store, &toks, t.time_slot);
        let (mu, logvar) = inner.head.forward(tape, store, h);
        let kl = tape.kl_std_normal(mu, logvar);
        let kl_w = tape.scale(kl, self.beta);
        let eps = Tensor::randn(1, self.cfg.latent_dim, 0.0, 1.0, rng);
        let z = tape.gaussian_sample(mu, logvar, eps);
        let h0_pre = inner.dec_init.forward(tape, store, z);
        let h0 = tape.tanh(h0_pre);
        let rec = inner.core.decode_nll(tape, store, h0, &toks, t.time_slot);
        tape.add(rec, kl_w)
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
}

impl Detector for Vsae {
    fn name(&self) -> &'static str {
        self.name
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
        let rec = core.infer_decode_nll(store, &p.h0, prefix, traj.time_slot);
        rec + self.beta as f64 * gaussian_kl(&p.mu, &p.logvar)
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
        let cfg = BaselineConfig::test_scale();
        let digests: Vec<String> =
            [Vsae::vsae(cfg.clone()), Vsae::beta_vae(cfg.clone(), 4.0), Vsae::deeptea(cfg)]
                .into_iter()
                .map(|mut m| {
                    m.fit(&city.net, &city.data.train);
                    let scores = city.data.test_id.iter().map(|t| m.score(t));
                    format!("{} {}", m.name, trained_digest(&m.inner().store, scores))
                })
                .collect();
        assert_eq!(
            digests,
            [
                "VSAE params 0xd1828ebdefada6e9 scores 0x78b87a6fb644f6f7",
                "BetaVAE params 0x9e5534281f9fc1df scores 0x97ed8a9b1b962091",
                "DeepTEA params 0xdc3c2dff7c971c39 scores 0xf6518ef97c32b8ed",
            ]
        );
    }

    #[test]
    fn fit_matches_the_parent_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(413));
        // The second learning rate overshoots: an early epoch is the best
        // one, so the restore is exercised.
        let cfg = BaselineConfig::test_scale();
        let hot = BaselineConfig { lr: 1.0, ..cfg.clone() };
        // β = 1, β ≠ 1, and the time-aware backbone.
        for m in [
            Vsae::vsae(cfg.clone()),
            Vsae::beta_vae(cfg.clone(), 4.0),
            Vsae::deeptea(cfg.clone()),
            Vsae::vsae(hot),
        ] {
            let cfg = &m.cfg;
            let mut reference = m.init(&city.net);
            let mut store = std::mem::take(&mut reference.store);
            let expected = train_loop(&mut store, cfg, &city.data.train, |tape, store, t, rng| {
                m.loss(&reference, tape, store, t, rng)
            });
            let (inner, report) = m.train(&city.net, &city.data.train);
            assert_eq!(report.epoch_losses, expected, "{}, lr {}", m.name, cfg.lr);
            assert_eq!(param_bits(&inner.store), param_bits(&store), "{}, lr {}", m.name, cfg.lr);
        }
    }

    #[test]
    fn vsae_separates_detours() {
        let city = generate_city(&CityConfig::test_scale(410));
        let mut m = Vsae::vsae(BaselineConfig::test_scale());
        m.fit(&city.net, &city.data.train);
        let mean = |ts: &[Trajectory]| -> f64 {
            ts.iter().map(|t| m.score(t)).sum::<f64>() / ts.len() as f64
        };
        assert!(mean(&city.data.detour) > mean(&city.data.test_id));
    }

    #[test]
    fn beta_vae_weights_kl_harder() {
        let city = generate_city(&CityConfig::test_scale(411));
        let cfg = BaselineConfig::test_scale();
        let mut plain = Vsae::vsae(cfg.clone());
        let mut beta = Vsae::beta_vae(cfg, 4.0);
        plain.fit(&city.net, &city.data.train);
        beta.fit(&city.net, &city.data.train);
        assert_eq!(plain.name(), "VSAE");
        assert_eq!(beta.name(), "BetaVAE");
        let t = &city.data.test_id[0];
        assert!(plain.score(t).is_finite() && beta.score(t).is_finite());
    }

    #[test]
    fn deeptea_is_time_sensitive() {
        let city = generate_city(&CityConfig::test_scale(412));
        let mut m = Vsae::deeptea(BaselineConfig::test_scale());
        m.fit(&city.net, &city.data.train);
        let mut t = city.data.test_id[0].clone();
        let s0 = m.score(&t);
        t.time_slot = (t.time_slot + 2) % 4;
        let s1 = m.score(&t);
        assert_ne!(s0, s1, "DeepTEA must react to the departure slot");
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn scoring_before_fit_panics() {
        let city = generate_city(&CityConfig::test_scale(413));
        let m = Vsae::vsae(BaselineConfig::test_scale());
        let _ = m.score(&city.data.test_id[0]);
    }
}
