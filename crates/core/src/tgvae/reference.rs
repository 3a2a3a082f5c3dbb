//! The scalar training reference of TG-VAE (test code): one trajectory,
//! one tape op per primitive. The fused loss (`tgvae::tests`) and the
//! batched trainer (`train::tests`) are checked against it; nothing trains
//! through it.

use rand::Rng;

use tad_autodiff::{ParamStore, Tape, Tensor};

use super::{TgLoss, TgVae};
use crate::config::CausalTadConfig;

impl TgVae {
    /// The pre-vectorisation scalar reference: one trajectory, one tape op
    /// per primitive (unfused GRU steps, one subset projection + CE per
    /// transition). Kept verbatim so the equivalence tests can compare the
    /// fused loss and the batched trainer against the original
    /// formulation — both consume the rng stream identically.
    pub(crate) fn loss_reference<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        segments: &[u32],
        successors: &[Vec<u32>],
        cfg: &CausalTadConfig,
        rng: &mut R,
    ) -> TgLoss {
        assert!(segments.len() >= 2, "trajectory must have at least 2 segments");
        let s = segments[0];
        let d = *segments.last().expect("non-empty");

        // --- SD encoder: Q1(R | c) -------------------------------------
        let s_emb = self.sd_embed.lookup(tape, store, &[s]);
        let d_emb = self.sd_embed.lookup(tape, store, &[d]);
        let sd = tape.concat_cols(s_emb, d_emb);
        let enc_pre = self.enc.forward(tape, store, sd);
        let enc_h = tape.tanh(enc_pre);
        let (mu, logvar) = self.head.forward(tape, store, enc_h);
        let kl = tape.kl_std_normal(mu, logvar);
        let eps = Tensor::randn(1, self.latent_dim, 0.0, 1.0, rng);
        let r = tape.gaussian_sample(mu, logvar, eps);

        // --- SD decoder: P(c | r) (posterior-collapse guard) ------------
        let mut total = kl;
        if !cfg.disable_sd_decoder {
            let sd_pre = self.sd_dec_hidden.forward(tape, store, r);
            let sd_h = tape.relu(sd_pre);
            let src_logits = self.src_head.forward(tape, store, sd_h);
            let src_ce = tape.softmax_cross_entropy(src_logits, &[s]);
            let dst_logits = self.dst_head.forward(tape, store, sd_h);
            let dst_ce = tape.softmax_cross_entropy(dst_logits, &[d]);
            let sd_ce = tape.add(src_ce, dst_ce);
            total = tape.add(total, sd_ce);
        }

        // --- Trajectory decoder: P(t | r), road-constrained -------------
        let init_pre = self.dec_init.forward(tape, store, r);
        let mut h = tape.tanh(init_pre);
        let bound = self.gru.bind(tape, store);
        let mut steps = 0usize;
        for w in segments.windows(2) {
            let (prev, next) = (w[0], w[1]);
            let x = self.traj_embed.lookup(tape, store, &[prev]);
            h = bound.step_unfused(tape, x, h);
            if cfg.disable_road_constraint {
                let logits = self.out_proj.forward(tape, store, h);
                let ce = tape.softmax_cross_entropy(logits, &[next]);
                total = tape.add(total, ce);
                steps += 1;
            } else {
                let cands = &successors[prev as usize];
                if let Some(pos) = cands.iter().position(|&c| c == next) {
                    let logits = self.out_proj.forward_subset(tape, store, h, cands);
                    let ce = tape.softmax_cross_entropy(logits, &[pos as u32]);
                    total = tape.add(total, ce);
                    steps += 1;
                }
            }
        }

        TgLoss { total, steps }
    }
}
