//! FactorVAE baseline (Kim & Mnih, ICML 2018).
//!
//! A VSAE whose objective adds a total-correlation (TC) penalty estimated by
//! an adversarial discriminator: `D` is trained to tell true posterior
//! samples `z ~ q(z|x)` from dimension-wise permuted samples, and the VAE
//! receives `γ · (log D(z) − log(1 − D(z)))` as an extra loss. The
//! discriminator lives in its *own* parameter store, so VAE updates never
//! touch it (and vice versa) — the standard two-player setup.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tad_autodiff::nn::{gaussian_kl, GaussianHead, Linear};
use tad_autodiff::optim::Adam;
use tad_autodiff::train::{self, Lane, Lanes};
use tad_autodiff::{ParamStore, Tape, Tensor, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::detector::{BaselineConfig, Detector};
use crate::seq::{tokens, SeqCore};

/// The FactorVAE detector.
pub struct FactorVae {
    cfg: BaselineConfig,
    /// TC penalty weight γ.
    gamma: f32,
    inner: Option<Inner>,
}

struct Inner {
    store: ParamStore,
    core: SeqCore,
    head: GaussianHead,
    dec_init: Linear,
}

/// Two-class MLP discriminator over latent vectors, with its own store.
struct Discriminator {
    store: ParamStore,
    l1: Linear,
    l2: Linear,
}

impl Discriminator {
    fn new(latent: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut store = ParamStore::new();
        let l1 = Linear::new(&mut store, "disc.l1", latent, hidden, rng);
        let l2 = Linear::new(&mut store, "disc.l2", hidden, 2, rng);
        Discriminator { store, l1, l2 }
    }

    /// `log D(z) - log(1 - D(z))` as logit difference, with the
    /// discriminator weights entering the (VAE) tape as constants so no
    /// gradient reaches them.
    fn tc_logit_on_vae_tape(&self, tape: &mut Tape, z: Var) -> Var {
        let w1 = tape.input(self.store.value(self.l1.weight()).clone());
        let b1 = tape.input(self.store.value(self.l1.bias()).clone());
        let w2 = tape.input(self.store.value(self.l2.weight()).clone());
        let b2 = tape.input(self.store.value(self.l2.bias()).clone());
        let h_pre0 = tape.matmul(z, w1);
        let h_pre = tape.add(h_pre0, b1);
        let h = tape.relu(h_pre);
        let logits_pre = tape.matmul(h, w2);
        let logits = tape.add(logits_pre, b2);
        let real = tape.slice_cols(logits, 0, 1);
        let perm = tape.slice_cols(logits, 1, 1);
        tape.sub(real, perm)
    }

    /// One discriminator update on a batch of detached latent samples.
    fn train_step(&mut self, adam: &mut Adam, zs: &[Tensor], rng: &mut StdRng) {
        if zs.len() < 2 {
            return;
        }
        let latent = zs[0].cols();
        let n = zs.len();
        // Stack real samples and dimension-wise permuted samples.
        let mut real = Tensor::zeros(n, latent);
        let mut perm = Tensor::zeros(n, latent);
        for (i, z) in zs.iter().enumerate() {
            real.row_mut(i).copy_from_slice(z.row(0));
        }
        for c in 0..latent {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            for (i, &j) in order.iter().enumerate() {
                perm.set(i, c, real.get(j, c));
            }
        }
        let mut tape = Tape::new();
        let x_real = tape.input(real);
        let x_perm = tape.input(perm);
        let loss_real = self.class_loss(&mut tape, x_real, 0, n);
        let loss_perm = self.class_loss(&mut tape, x_perm, 1, n);
        let loss = tape.add(loss_real, loss_perm);
        tape.backward(loss, &mut self.store);
        adam.step(&mut self.store);
    }

    fn class_loss(&self, tape: &mut Tape, x: Var, class: u32, n: usize) -> Var {
        let h_pre = self.l1.forward(tape, &self.store, x);
        let h = tape.relu(h_pre);
        let logits = self.l2.forward(tape, &self.store, h);
        let targets = vec![class; n];
        let ce = tape.softmax_cross_entropy(logits, &targets);
        tape.scale(ce, 1.0 / n as f32)
    }
}

impl FactorVae {
    /// Creates an unfitted FactorVAE with TC weight γ.
    pub fn new(cfg: BaselineConfig, gamma: f32) -> Self {
        FactorVae { cfg, gamma, inner: None }
    }

    fn inner(&self) -> &Inner {
        self.inner.as_ref().expect("FactorVAE: call fit() before scoring")
    }
}

/// The two players under the workspace's one optimisation loop: the VAE is
/// the lane it optimises, and the discriminator takes its update on the
/// batch's latent samples right after each accepted VAE step.
struct Players<'a> {
    model: &'a FactorVae,
    /// The VAE's layers; its parameters are in `lane` while training runs.
    vae: &'a Inner,
    lane: Lane,
    disc: Discriminator,
    disc_adam: Adam,
    /// The detached `z` of every trajectory passed in the current batch.
    batch_z: Vec<Tensor>,
}

impl Lanes<Trajectory> for Players<'_> {
    fn pass(&mut self, chunk: &[&Trajectory], scale: f32, _last: bool, rng: &mut StdRng) -> f32 {
        let Players { model, vae, lane, disc, batch_z, .. } = self;
        let t = chunk[0];
        lane.pass(scale, |tape, store| {
            let toks = tokens(t);
            let h = vae.core.encode(tape, store, &toks, t.time_slot);
            let (mu, logvar) = vae.head.forward(tape, store, h);
            let kl = tape.kl_std_normal(mu, logvar);
            let eps = Tensor::randn(1, model.cfg.latent_dim, 0.0, 1.0, rng);
            let z = tape.gaussian_sample(mu, logvar, eps);
            batch_z.push(tape.value(z).clone());
            let tc = disc.tc_logit_on_vae_tape(tape, z);
            let tc_w = tape.scale(tc, model.gamma);
            let h0_pre = vae.dec_init.forward(tape, store, z);
            let h0 = tape.tanh(h0_pre);
            let rec = vae.core.decode_nll(tape, store, h0, &toks, t.time_slot);
            let partial = tape.add(rec, kl);
            tape.add(partial, tc_w)
        })
    }

    fn grad_sq_norm(&mut self) -> f64 {
        self.lane.grad_sq_norms().sum()
    }

    fn step(&mut self, grad_scale: Option<f32>, rng: &mut StdRng) {
        self.lane.step(grad_scale);
        self.disc.train_step(&mut self.disc_adam, &self.batch_z, rng);
        self.batch_z.clear();
    }

    fn discard(&mut self) {
        self.lane.discard();
        self.batch_z.clear();
    }

    /// An adversarial loss has no best epoch: the last one's values stand.
    fn checkpoint(&mut self) {}
}

impl Detector for FactorVae {
    fn name(&self) -> &'static str {
        "FactorVAE"
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "fvae", net.num_segments(), &self.cfg, false, &mut rng);
        let head = GaussianHead::new(
            &mut store,
            "fvae.head",
            self.cfg.hidden_dim,
            self.cfg.latent_dim,
            &mut rng,
        );
        let dec_init = Linear::new(
            &mut store,
            "fvae.dec_init",
            self.cfg.latent_dim,
            self.cfg.hidden_dim,
            &mut rng,
        );
        let disc = Discriminator::new(self.cfg.latent_dim, self.cfg.hidden_dim, &mut rng);
        let mut vae = Inner { store, core, head, dec_init };

        // The init stream runs on into training: shuffles, noise, and the
        // discriminator's permutations.
        let mut players = Players {
            model: self,
            lane: Lane::new(std::mem::take(&mut vae.store), self.cfg.lr),
            vae: &vae,
            disc_adam: Adam::new(&disc.store, self.cfg.lr),
            disc,
            batch_z: Vec::new(),
        };
        train::run(&mut players, train, |t| t.len() >= 2, &self.cfg.schedule(), &mut rng);
        vae.store = players.lane.finish();
        self.inner = Some(vae);
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        let inner = self.inner();
        let toks = tokens(traj);
        let n = prefix_len.clamp(2.min(toks.len()), toks.len());
        let prefix = &toks[..n];
        let (core, store) = (&inner.core, &inner.store);
        let p = core.infer_posterior(store, &inner.head, &inner.dec_init, prefix, traj.time_slot);
        core.infer_decode_nll(store, &p.h0, prefix, traj.time_slot) + gaussian_kl(&p.mu, &p.logvar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reference::{param_bits, trained_digest};
    use rand::Rng;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn trained_bits_match_their_checked_in_digests() {
        // Test city 7: `tests/cities.rs` pins its bytes.
        let city = generate_city(&CityConfig::test_scale(7));
        let mut m = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        m.fit(&city.net, &city.data.train);
        let scores = city.data.test_id.iter().map(|t| m.score(t));
        assert_eq!(
            trained_digest(&m.inner().store, scores),
            "params 0xd1254cfc53c1dc2f scores 0xc92fdc9e28507102"
        );
    }

    impl FactorVae {
        /// `fit` as it stood before it moved onto `train::run`, loop and all:
        /// the reference the shared loop is pinned to.
        fn parent_fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
            let mut rng = StdRng::seed_from_u64(self.cfg.seed);
            let mut store = ParamStore::new();
            let core =
                SeqCore::new(&mut store, "fvae", net.num_segments(), &self.cfg, false, &mut rng);
            let head = GaussianHead::new(
                &mut store,
                "fvae.head",
                self.cfg.hidden_dim,
                self.cfg.latent_dim,
                &mut rng,
            );
            let dec_init = Linear::new(
                &mut store,
                "fvae.dec_init",
                self.cfg.latent_dim,
                self.cfg.hidden_dim,
                &mut rng,
            );
            let mut disc = Discriminator::new(self.cfg.latent_dim, self.cfg.hidden_dim, &mut rng);
            let mut disc_adam = Adam::new(&disc.store, self.cfg.lr);

            // Custom loop: the discriminator trains on whole batches of z.
            let mut adam = Adam::new(&store, self.cfg.lr);
            let mut order: Vec<usize> = (0..train.len()).collect();
            let mut tape = Tape::new();
            for _ in 0..self.cfg.epochs {
                order.shuffle(&mut rng);
                for batch in order.chunks(self.cfg.batch_size) {
                    let scale = 1.0 / batch.len() as f32;
                    let mut batch_z: Vec<Tensor> = Vec::with_capacity(batch.len());
                    let mut ok = true;
                    for &idx in batch {
                        let t = &train[idx];
                        if t.len() < 2 {
                            continue;
                        }
                        let toks = tokens(t);
                        tape.reset();
                        let h = core.encode(&mut tape, &store, &toks, t.time_slot);
                        let (mu, logvar) = head.forward(&mut tape, &store, h);
                        let kl = tape.kl_std_normal(mu, logvar);
                        let eps = Tensor::randn(1, self.cfg.latent_dim, 0.0, 1.0, &mut rng);
                        let z = tape.gaussian_sample(mu, logvar, eps);
                        batch_z.push(tape.value(z).clone());
                        let tc = disc.tc_logit_on_vae_tape(&mut tape, z);
                        let tc_w = tape.scale(tc, self.gamma);
                        let h0_pre = dec_init.forward(&mut tape, &store, z);
                        let h0 = tape.tanh(h0_pre);
                        let rec = core.decode_nll(&mut tape, &store, h0, &toks, t.time_slot);
                        let partial = tape.add(rec, kl);
                        let loss = tape.add(partial, tc_w);
                        if !tape.value(loss).get(0, 0).is_finite() {
                            ok = false;
                            break;
                        }
                        let scaled = tape.scale(loss, scale);
                        tape.backward(scaled, &mut store);
                    }
                    if !ok {
                        store.zero_grads();
                        continue;
                    }
                    if self.cfg.grad_clip > 0.0 {
                        store.clip_grad_norm(self.cfg.grad_clip);
                    }
                    adam.step(&mut store);
                    disc.train_step(&mut disc_adam, &batch_z, &mut rng);
                }
            }
            self.inner = Some(Inner { store, core, head, dec_init });
        }
    }

    #[test]
    fn fit_matches_the_parent_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(423));
        let mut expected = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        expected.parent_fit(&city.net, &city.data.train);
        let mut m = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        m.fit(&city.net, &city.data.train);
        assert_eq!(param_bits(&m.inner().store), param_bits(&expected.inner().store));
    }

    #[test]
    fn factor_vae_fits_and_scores() {
        let city = generate_city(&CityConfig::test_scale(420));
        let mut m = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        m.fit(&city.net, &city.data.train);
        let mean = |ts: &[Trajectory]| -> f64 {
            ts.iter().map(|t| m.score(t)).sum::<f64>() / ts.len() as f64
        };
        assert!(mean(&city.data.detour) > mean(&city.data.test_id));
    }

    #[test]
    fn discriminator_learns_to_separate_correlated_dims() {
        // Construct z where all dims are equal (maximal correlation):
        // permuted versions are easily distinguishable.
        let mut rng = StdRng::seed_from_u64(0);
        let mut disc = Discriminator::new(4, 16, &mut rng);
        let mut adam = Adam::new(&disc.store, 0.01);
        for _ in 0..60 {
            let zs: Vec<Tensor> = (0..16)
                .map(|_| {
                    let v: f32 = rng.gen_range(-2.0..2.0);
                    Tensor::from_vec(1, 4, vec![v; 4])
                })
                .collect();
            disc.train_step(&mut adam, &zs, &mut rng);
        }
        // A fresh correlated sample should be classified "real" (class 0).
        let mut tape = Tape::new();
        let z = tape.input(Tensor::from_vec(1, 4, vec![1.5; 4]));
        let logit = disc.tc_logit_on_vae_tape(&mut tape, z);
        assert!(
            tape.value(logit).get(0, 0) > 0.0,
            "correlated sample should look 'real': {}",
            tape.value(logit).get(0, 0)
        );
    }
}
