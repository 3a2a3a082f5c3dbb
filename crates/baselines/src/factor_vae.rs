//! FactorVAE baseline (Kim & Mnih, ICML 2018).
//!
//! A VSAE whose objective adds a total-correlation (TC) penalty estimated by
//! an adversarial discriminator: `D` is trained to tell true posterior
//! samples `z ~ q(z|x)` from dimension-wise permuted samples, and the VAE
//! receives `γ · (log D(z) − log(1 − D(z)))` as an extra loss. The
//! discriminator lives in its *own* parameter store, so VAE updates never
//! touch it (and vice versa) — the standard two-player setup. Like the
//! VAE's lane, its gradients and Adam moments exist only while it trains.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tad_autodiff::nn::{gaussian_kl, GaussianHead, Linear};
use tad_autodiff::optim::Adam;
use tad_autodiff::train::{self, Lane, Lanes, TrainReport};
use tad_autodiff::{Gradients, ParamStore, Tape, Tensor, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::detector::{BaselineConfig, Detector};
use crate::seq::{chunk_noise, chunk_tokens, tokens, SeqCore};

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

    /// `log D(z) - log(1 - D(z))` per row of `z`, as logit differences
    /// (`rows x 1`), with the discriminator weights entering the (VAE)
    /// tape as constants so no gradient reaches them.
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

    /// One discriminator update on a batch of detached latent samples, one
    /// per row of `real`, through `adam` and `grads` (both aligned to the
    /// discriminator's store), recorded on `tape` after a reset, so a step
    /// of the last one's shapes allocates no tape buffer.
    fn train_step(
        &mut self,
        tape: &mut Tape,
        adam: &mut Adam,
        grads: &mut Gradients,
        real: &Tensor,
        rng: &mut StdRng,
    ) {
        let (n, latent) = real.shape();
        if n < 2 {
            return;
        }
        // Dimension-wise permuted samples.
        let mut perm = Tensor::zeros(n, latent);
        for c in 0..latent {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            for (i, &j) in order.iter().enumerate() {
                perm.set(i, c, real.get(j, c));
            }
        }
        tape.reset();
        let x_real = tape.input(real.clone());
        let x_perm = tape.input(perm);
        let loss_real = self.class_loss(tape, x_real, 0, n);
        let loss_perm = self.class_loss(tape, x_perm, 1, n);
        let loss = tape.add(loss_real, loss_perm);
        tape.backward(loss, &self.store, grads);
        adam.step(&mut self.store, grads);
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

    /// Registers the VAE's parameters and the discriminator, initialised
    /// from the `cfg.seed` stream, and returns that stream: it runs on into
    /// training (shuffles, noise, and the discriminator's permutations).
    fn init(&self, net: &RoadNetwork) -> (Inner, Discriminator, StdRng) {
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
        (Inner { store, core, head, dec_init }, disc, rng)
    }

    /// A chunk's summed `reconstruction + KL + γ·TC`, the parameters of
    /// `vae` read from `store` — training holds them outside it while it
    /// runs — and the detached `z` rows the discriminator trains on.
    fn loss(
        &self,
        vae: &Inner,
        disc: &Discriminator,
        tape: &mut Tape,
        store: &ParamStore,
        chunk: &[&Trajectory],
        rng: &mut StdRng,
    ) -> (Var, Tensor) {
        let (toks, slots) = chunk_tokens(chunk);
        let h = vae.core.encode(tape, store, &toks, &slots);
        let (mu, logvar) = vae.head.forward(tape, store, h);
        let kl = tape.kl_std_normal(mu, logvar);
        let eps = chunk_noise(chunk.len(), self.cfg.latent_dim, rng);
        let z = tape.gaussian_sample(mu, logvar, eps);
        let tc = disc.tc_logit_on_vae_tape(tape, z);
        let tc_sum = tape.sum_all(tc);
        let tc_w = tape.scale(tc_sum, self.gamma);
        let h0_pre = vae.dec_init.forward(tape, store, z);
        let h0 = tape.tanh(h0_pre);
        let rec = vae.core.decode_nll(tape, store, h0, &toks, &slots);
        let partial = tape.add(rec, kl);
        (tape.add(partial, tc_w), tape.value(z).clone())
    }

    /// Trains a fresh VAE, and its discriminator, on `train`.
    fn train(&self, net: &RoadNetwork, train: &[Trajectory]) -> (Inner, TrainReport) {
        let (mut vae, disc, mut rng) = self.init(net);
        let mut players = Players {
            model: self,
            lane: Lane::new(std::mem::take(&mut vae.store), self.cfg.lr),
            vae: &vae,
            disc_tape: Tape::new(),
            disc_adam: Adam::new(&disc.store, self.cfg.lr),
            disc_grads: Gradients::new(&disc.store),
            disc,
            batch_z: Tensor::zeros(0, self.cfg.latent_dim),
        };
        let report =
            train::run(&mut players, train, |t| t.len() >= 2, &self.cfg.schedule(), &mut rng);
        vae.store = players.lane.finish();
        (vae, report)
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
    disc_tape: Tape,
    disc_adam: Adam,
    disc_grads: Gradients,
    /// The detached `z` of the batch last passed, one row per trajectory.
    batch_z: Tensor,
}

impl Lanes<Trajectory> for Players<'_> {
    fn pass(&mut self, batch: &[&Trajectory], scale: f32, rng: &mut StdRng) -> f32 {
        let Players { model, vae, lane, disc, batch_z, .. } = self;
        lane.pass(scale, |tape, store| {
            let (loss, z) = model.loss(vae, disc, tape, store, batch, rng);
            *batch_z = z;
            loss
        })
    }

    fn grad_sq_norm(&mut self) -> f64 {
        self.lane.grad_sq_norms().sum()
    }

    fn step(&mut self, grad_scale: Option<f32>, rng: &mut StdRng) {
        self.lane.step(grad_scale);
        let (tape, adam, grads) = (&mut self.disc_tape, &mut self.disc_adam, &mut self.disc_grads);
        self.disc.train_step(tape, adam, grads, &self.batch_z, rng);
    }

    fn discard(&mut self) {
        self.lane.discard();
    }

    /// An adversarial loss has no best epoch: the last one's values stand.
    fn checkpoint(&mut self) {}
}

impl Detector for FactorVae {
    fn name(&self) -> &'static str {
        "FactorVAE"
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
        core.infer_decode_nll(store, &p.h0, prefix, traj.time_slot) + gaussian_kl(&p.mu, &p.logvar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reference::{assert_tracks, param_bits, trained_digest};
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
            "params 0xfe3268d1794b4428 scores 0x5b16119e94f9a3ed"
        );
    }

    impl FactorVae {
        /// `fit` as it stood before it moved onto `train::run`, loop and
        /// all, with the eligible trajectories of each batch handed to the
        /// loss in tape passes of `per_pass` whose gradients accumulate
        /// into one step: the reference the shared loop is pinned to at
        /// `cfg.batch_size`, the per-example loop at 1. The trained VAE and
        /// the epoch losses.
        fn parent_fit(
            &self,
            net: &RoadNetwork,
            train: &[Trajectory],
            per_pass: usize,
        ) -> (Inner, Vec<f64>) {
            let (mut vae, mut disc, mut rng) = self.init(net);
            let mut disc_adam = Adam::new(&disc.store, self.cfg.lr);
            let mut disc_grads = Gradients::new(&disc.store);
            let mut disc_tape = Tape::new();
            let mut store = std::mem::take(&mut vae.store);

            // Custom loop: the discriminator trains on whole batches of z.
            let (mut adam, mut grads) = (Adam::new(&store, self.cfg.lr), Gradients::new(&store));
            let mut order: Vec<usize> = (0..train.len()).collect();
            let mut tape = Tape::new();
            let mut losses = Vec::new();
            for _ in 0..self.cfg.epochs {
                order.shuffle(&mut rng);
                let (mut epoch_loss, mut counted) = (0.0f64, 0usize);
                for batch in order.chunks(self.cfg.batch_size) {
                    let scale = 1.0 / batch.len() as f32;
                    let eligible: Vec<&Trajectory> =
                        batch.iter().map(|&idx| &train[idx]).filter(|t| t.len() >= 2).collect();
                    let (mut batch_z, mut batch_loss, mut ok) = (Vec::new(), 0.0f64, true);
                    for chunk in eligible.chunks(per_pass) {
                        tape.reset();
                        let (loss, z) = self.loss(&vae, &disc, &mut tape, &store, chunk, &mut rng);
                        batch_z.extend_from_slice(z.data());
                        let v = tape.value(loss).get(0, 0);
                        if !v.is_finite() {
                            ok = false;
                            break;
                        }
                        let scaled = tape.scale(loss, scale);
                        tape.backward(scaled, &store, &mut grads);
                        batch_loss += v as f64;
                    }
                    if !ok {
                        grads.zero();
                        continue;
                    }
                    let norm = grads.sq_norms().sum::<f64>().sqrt();
                    let factor = Gradients::clip_factor(norm, self.cfg.grad_clip);
                    adam.step_scaled(&mut store, &mut grads, factor);
                    let latent = self.cfg.latent_dim;
                    let real = Tensor::from_vec(batch_z.len() / latent, latent, batch_z);
                    disc.train_step(
                        &mut disc_tape,
                        &mut disc_adam,
                        &mut disc_grads,
                        &real,
                        &mut rng,
                    );
                    epoch_loss += batch_loss;
                    counted += eligible.len();
                }
                losses.push(epoch_loss / counted as f64);
            }
            vae.store = store;
            (vae, losses)
        }
    }

    #[test]
    fn fit_matches_the_parent_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(423));
        let m = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        let (expected, losses) = m.parent_fit(&city.net, &city.data.train, m.cfg.batch_size);
        let (inner, report) = m.train(&city.net, &city.data.train);
        assert_eq!(report.epoch_losses, losses);
        assert_eq!(param_bits(&inner.store), param_bits(&expected.store));
    }

    #[test]
    fn fit_tracks_the_per_example_parent_loop() {
        let city = generate_city(&CityConfig::test_scale(423));
        let m = FactorVae::new(BaselineConfig::test_scale(), 2.0);
        let (_, expected) = m.parent_fit(&city.net, &city.data.train, 1);
        let (_, report) = m.train(&city.net, &city.data.train);
        assert_tracks(&report.epoch_losses, &expected, "FactorVAE");
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
    fn discriminator_steps_of_one_shape_stop_allocating() {
        // The discriminator records every step on the one tape it is
        // handed: from the second step of a shape on, the tape's pool
        // serves every take.
        let mut rng = StdRng::seed_from_u64(3);
        let mut disc = Discriminator::new(4, 16, &mut rng);
        let (mut adam, mut grads) = (Adam::new(&disc.store, 0.01), Gradients::new(&disc.store));
        let mut tape = Tape::new();
        let mut step = |tape: &mut Tape, rng: &mut StdRng| {
            let real = Tensor::randn(8, 4, 0.0, 1.0, rng);
            disc.train_step(tape, &mut adam, &mut grads, &real, rng);
            tape.pool_stats()
        };
        let (_, warm_misses) = step(&mut tape, &mut rng);
        for _ in 0..4 {
            let (hits, misses) = step(&mut tape, &mut rng);
            assert_eq!(misses, warm_misses, "a same-shape discriminator step allocated");
            assert!(hits > 0);
        }
    }

    #[test]
    fn discriminator_learns_to_separate_correlated_dims() {
        // Construct z where all dims are equal (maximal correlation):
        // permuted versions are easily distinguishable.
        let mut rng = StdRng::seed_from_u64(0);
        let mut disc = Discriminator::new(4, 16, &mut rng);
        let (mut adam, mut grads) = (Adam::new(&disc.store, 0.01), Gradients::new(&disc.store));
        let mut tape = Tape::new();
        for _ in 0..60 {
            let zs: Vec<f32> = (0..16).flat_map(|_| [rng.gen_range(-2.0..2.0); 4]).collect();
            let real = Tensor::from_vec(16, 4, zs);
            disc.train_step(&mut tape, &mut adam, &mut grads, &real, &mut rng);
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
