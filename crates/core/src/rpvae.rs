//! Road Preference VAE (RP-VAE, paper §V-C).
//!
//! Factorises the debiasing scaling factor of a trajectory into its road
//! segments and estimates each segment's likelihood with a small VAE: the
//! encoder `Ψe` maps a segment embedding to a Gaussian posterior over the
//! latent preference `E_i`, and the decoder `Ψd` reconstructs the segment.
//! After training, `E_{e ~ Q2(E|t_i)}[1 / P(t_i | e)]` is approximated by
//! Monte Carlo and precomputed for all segments (see
//! [`crate::scaling::ScalingTable`]).
//!
//! With [`crate::config::CausalTadConfig::time_factorised_scaling`] the
//! tokens become `(segment, time-slot)` pairs — the paper's §V-E.3
//! future-work extension.

use rand::Rng;

use tad_autodiff::nn::{Embedding, GaussianHead, Linear};
use tad_autodiff::{ParamStore, Tape, Tensor, Var};

use crate::config::CausalTadConfig;

/// The RP-VAE module.
#[derive(Clone, Debug)]
pub struct RpVae {
    /// `E_s`: token embeddings.
    embed: Embedding,
    /// First stage of `Ψe`.
    enc: Linear,
    /// Gaussian head producing `(mu_i, logvar_i)`.
    head: GaussianHead,
    /// Hidden stage of `Ψd`.
    dec_hidden: Linear,
    /// Token reconstruction head (row-major over tokens).
    out: Linear,
    vocab: usize,
    /// Time slots the tokens are factorised over; 1 when they are not.
    num_slots: usize,
    time_factorised: bool,
    latent_dim: usize,
}

impl RpVae {
    /// Registers all parameters in `store`. When
    /// `cfg.time_factorised_scaling` is set the token space is
    /// `vocab * num_time_slots`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        vocab: usize,
        cfg: &CausalTadConfig,
        rng: &mut R,
    ) -> Self {
        let num_slots = if cfg.time_factorised_scaling { cfg.num_time_slots } else { 1 };
        let tokens = vocab.saturating_mul(num_slots);
        let de = cfg.embed_dim;
        let dh = cfg.hidden_dim;
        let dl = cfg.rp_latent_dim;
        RpVae {
            embed: Embedding::new(store, "rp.embed", tokens, de, rng),
            enc: Linear::new(store, "rp.enc", de, dh, rng),
            head: GaussianHead::new(store, "rp.head", dh, dl, rng),
            dec_hidden: Linear::new(store, "rp.dec_hidden", dl, dh, rng),
            out: Linear::new_rowmajor(store, "rp.out", dh, tokens, rng),
            vocab,
            num_slots,
            time_factorised: cfg.time_factorised_scaling,
            latent_dim: dl,
        }
    }

    /// Token id for a segment observed in a time slot.
    pub fn token(&self, seg: u32, slot: u8) -> u32 {
        (slot as u32 % self.num_slots as u32) * self.vocab as u32 + seg
    }

    /// Number of distinct tokens.
    pub fn num_tokens(&self) -> usize {
        self.vocab * self.num_slots
    }

    /// Whether tokens are `(segment, slot)` pairs.
    pub fn is_time_factorised(&self) -> bool {
        self.time_factorised
    }

    /// Number of time slots (1 when not time-factorised).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Segment vocabulary size (excluding slot factorisation).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Builds the batched training loss `L2` for a set of observed tokens
    /// (all segments of one trajectory, or any minibatch of occurrences).
    pub fn loss<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        rng: &mut R,
    ) -> Var {
        let eps = Tensor::randn(tokens.len(), self.latent_dim, 0.0, 1.0, rng);
        self.loss_with_eps(tape, store, tokens, eps)
    }

    /// [`RpVae::loss`] with pre-drawn reparameterisation noise (one row per
    /// token). Batched training concatenates several trajectories' token
    /// lists and stacks their per-trajectory eps blocks, keeping rng
    /// consumption identical to the per-trajectory path; the whole batch then
    /// runs one encoder/decoder GEMM chain and one fused full-vocab CE.
    pub fn loss_with_eps(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        eps: Tensor,
    ) -> Var {
        assert!(!tokens.is_empty(), "RP-VAE loss needs at least one token");
        assert_eq!(eps.shape(), (tokens.len(), self.latent_dim), "loss_with_eps: eps shape");
        let x = self.embed.lookup(tape, store, tokens);
        let enc_pre = self.enc.forward(tape, store, x);
        let enc_h = tape.tanh(enc_pre);
        let (mu, logvar) = self.head.forward(tape, store, enc_h);
        let kl = tape.kl_std_normal(mu, logvar);
        let z = tape.gaussian_sample(mu, logvar, eps);
        let dec_pre = self.dec_hidden.forward(tape, store, z);
        let dec_h = tape.relu(dec_pre);
        let logits = self.out.forward(tape, store, dec_h);
        let ce = tape.softmax_cross_entropy(logits, tokens);
        tape.add(ce, kl)
    }

    /// Tape-free posterior `(mu, logvar)` for a batch of tokens.
    pub fn encode(&self, store: &ParamStore, tokens: &[u32]) -> (Tensor, Tensor) {
        let x = self.embed.embed(store, tokens);
        let enc_h = infer(&self.enc, store, &x).map(f32::tanh);
        let mut mu = Tensor::zeros(tokens.len(), self.latent_dim);
        let mut logvar = Tensor::zeros(tokens.len(), self.latent_dim);
        self.head.infer(store, enc_h.data(), mu.data_mut(), logvar.data_mut());
        (mu, logvar)
    }

    /// Tape-free decoder logits for a batch of latent samples.
    pub fn decode_logits(&self, store: &ParamStore, z: &Tensor) -> Tensor {
        let dec_h = infer(&self.dec_hidden, store, z).map(|x| x.max(0.0));
        infer(&self.out, store, &dec_h)
    }
}

/// [`Linear::infer`] of a batch, into a new tensor.
fn infer(layer: &Linear, store: &ParamStore, x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), layer.out_dim());
    layer.infer(store, x.data(), out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_autodiff::optim::Adam;

    fn build(time_factorised: bool) -> (ParamStore, RpVae, StdRng) {
        let mut cfg = CausalTadConfig::test_scale();
        cfg.time_factorised_scaling = time_factorised;
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let rp = RpVae::new(&mut store, 10, &cfg, &mut rng);
        (store, rp, rng)
    }

    #[test]
    fn token_mapping_plain_and_time_factorised() {
        let (_, plain, _) = build(false);
        assert_eq!(plain.token(7, 3), 7);
        assert_eq!(plain.num_tokens(), 10);
        let (_, timed, _) = build(true);
        assert_eq!(timed.token(7, 0), 7);
        assert_eq!(timed.token(7, 2), 2 * 10 + 7);
        assert_eq!(timed.num_tokens(), 40);
        assert!(timed.is_time_factorised());
    }

    #[test]
    fn loss_finite_on_batch() {
        let (store, rp, mut rng) = build(false);
        let mut tape = Tape::new();
        let loss = rp.loss(&mut tape, &store, &[1, 5, 5, 9], &mut rng);
        let v = tape.value(loss).get(0, 0);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn training_learns_token_frequencies() {
        let (mut store, rp, mut rng) = build(false);
        let mut adam = Adam::new(&store, 0.01);
        // Token 3 appears 8x as often as token 7.
        let batch: Vec<u32> = std::iter::repeat_n(3u32, 8).chain(std::iter::once(7u32)).collect();
        for _ in 0..150 {
            let mut tape = Tape::new();
            let loss = rp.loss(&mut tape, &store, &batch, &mut rng);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        // Reconstruction probability of the frequent token should dominate.
        let (mu, _) = rp.encode(&store, &[3, 7]);
        let logits = rp.decode_logits(&store, &mu);
        let p3 = softmax_prob(logits.row(0), 3);
        let p7 = softmax_prob(logits.row(1), 7);
        assert!(p3 > p7, "frequent token should reconstruct better: {p3} vs {p7}");
    }

    fn softmax_prob(logits: &[f32], idx: usize) -> f64 {
        let lse = tad_autodiff::logsumexp(logits);
        ((logits[idx] - lse) as f64).exp()
    }

    #[test]
    fn encode_decode_shapes() {
        let (store, rp, _) = build(true);
        let (mu, logvar) = rp.encode(&store, &[0, 15, 39]);
        assert_eq!(mu.shape(), (3, 8));
        assert_eq!(logvar.shape(), (3, 8));
        let logits = rp.decode_logits(&store, &mu);
        assert_eq!(logits.shape(), (3, 40));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_batch_rejected() {
        let (store, rp, mut rng) = build(false);
        let mut tape = Tape::new();
        let _ = rp.loss(&mut tape, &store, &[], &mut rng);
    }
}
