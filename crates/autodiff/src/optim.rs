//! Optimisers: a step reads a [`Gradients`] set, writes the values of the
//! [`ParamStore`] it is aligned to, and zeroes the set.

use crate::params::{Gradients, ParamStore};
use crate::tensor::Tensor;

/// Adam optimiser (Kingma & Ba, ICLR 2015) — the optimiser the paper uses.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical fuzz added to the denominator.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with moment buffers sized for `store`.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let m = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                Tensor::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0, m, v }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update to `store` from `grads`, then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore, grads: &mut Gradients) {
        self.step_scaled(store, grads, None);
    }

    /// [`Adam::step`] on the gradients times `grad_scale` (a clip factor),
    /// if any: one pass over each parameter that scales, updates and zeroes
    /// the gradient element by element — the f32 operations of a clip by
    /// that factor, then the update, then [`Gradients::zero`], in that
    /// order.
    pub fn step_scaled(
        &mut self,
        store: &mut ParamStore,
        grads: &mut Gradients,
        grad_scale: Option<f32>,
    ) {
        assert_eq!(self.m.len(), store.len(), "Adam: store layout changed");
        assert_eq!(grads.len(), store.len(), "Adam: gradients of another store");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((value, grad), (m, v)) in
            store.values_mut().zip(grads.iter_mut()).zip(self.m.iter_mut().zip(&mut self.v))
        {
            for (((p, g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data_mut())
                .zip(m.data_mut().iter_mut())
                .zip(v.data_mut().iter_mut())
            {
                let scaled = match grad_scale {
                    Some(factor) => *g * factor,
                    None => *g,
                };
                *g = 0.0;
                let g = scaled + self.weight_decay * *p;
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{ragged_schedule, Embedding, GaussianHead, GruCell, Linear};
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Minimise f(x) = (x - 3)^2 and check convergence.
    fn quadratic_loss(store: &ParamStore, id: crate::params::ParamId) -> (Tape, crate::tape::Var) {
        let mut tape = Tape::new();
        let x = tape.param(store, id);
        let shifted = tape.add_scalar(x, -3.0);
        let sq = tape.mul(shifted, shifted);
        let loss = tape.sum_all(sq);
        (tape, loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![-5.0]));
        let (mut adam, mut grads) = (Adam::new(&store, 0.2), Gradients::new(&store));
        for _ in 0..200 {
            let (mut tape, loss) = quadratic_loss(&store, id);
            tape.backward(loss, &store, &mut grads);
            adam.step(&mut store, &mut grads);
        }
        let x = store.value(id).get(0, 0);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
        assert_eq!(adam.steps(), 200);
    }

    #[test]
    fn adam_zeroes_grads_after_step() {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![1.0]));
        let (mut adam, mut grads) = (Adam::new(&store, 0.1), Gradients::new(&store));
        let (mut tape, loss) = quadratic_loss(&store, id);
        tape.backward(loss, &store, &mut grads);
        assert!(grads.norm() > 0.0);
        adam.step(&mut store, &mut grads);
        assert_eq!(grads.norm(), 0.0);
    }

    #[test]
    fn a_scaled_step_is_a_clip_then_a_step_bit_for_bit() {
        // What lets a reference loop clip by the factor inside the step:
        // `step_scaled(f)` and "scale every gradient by f, then `step`"
        // write the same bits, values and moments alike. Checked on real
        // gradients at the widths CausalTAD trains at (test scale,
        // default, paper): a sequence VAE's embedding, ragged GRU
        // recurrence, Gaussian head and vocabulary decoder. The clip
        // bites on even rounds and not on odd ones, by a factor that is
        // not a power of two.
        for (embed, hidden, latent) in [(12, 20, 12), (24, 48, 24), (64, 128, 64)] {
            let vocab = 300;
            let mut rng = StdRng::seed_from_u64(hidden as u64);
            let mut store = ParamStore::new();
            let emb = Embedding::new(&mut store, "emb", vocab, embed, &mut rng);
            let gru = GruCell::new(&mut store, "gru", embed, hidden, &mut rng);
            let head = GaussianHead::new(&mut store, "head", hidden, latent, &mut rng);
            let dec = Linear::new(&mut store, "dec", latent, vocab, &mut rng);
            let (mut fused, mut clipped) = (store.clone(), store.clone());
            let (mut adam_f, mut adam_c) = (Adam::new(&store, 1e-2), Adam::new(&store, 1e-2));
            let (mut grads_f, mut grads_c) = (Gradients::new(&store), Gradients::new(&store));
            let schedule = ragged_schedule(&[7, 5, 5, 3]);
            let rows: usize = schedule.iter().map(Vec::len).sum();
            for round in 0..6 {
                let tokens: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..vocab as u32)).collect();
                let targets: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..vocab as u32)).collect();
                let eps = Tensor::randn(rows, latent, 0.0, 1.0, &mut rng);
                for (s, g) in [(&fused, &mut grads_f), (&clipped, &mut grads_c)] {
                    let mut tape = Tape::new();
                    let bound = gru.bind(&mut tape, s);
                    let x_all = emb.lookup(&mut tape, s, &tokens);
                    let gx_all = bound.input_gates(&mut tape, x_all);
                    let h0 = tape.input(Tensor::zeros(4, hidden));
                    let h_all = bound.sequence(&mut tape, gx_all, h0, &schedule);
                    let (mu, logvar) = head.forward(&mut tape, s, h_all);
                    let z = tape.gaussian_sample(mu, logvar, eps.clone());
                    let logits = dec.forward(&mut tape, s, z);
                    let rec = tape.softmax_cross_entropy(logits, &targets);
                    let kl = tape.kl_std_normal(mu, logvar);
                    let loss = tape.add(rec, kl);
                    tape.backward(loss, s, g);
                }
                let norm = grads_c.norm();
                let max_norm = if round % 2 == 0 { 0.3 * norm } else { 3.0 * norm };
                let factor = Gradients::clip_factor(norm, max_norm);
                assert_eq!(factor.is_some(), round % 2 == 0, "hidden {hidden}, round {round}");
                adam_f.step_scaled(&mut fused, &mut grads_f, factor);
                assert_eq!(grads_c.clip_norm(max_norm), norm);
                adam_c.step(&mut clipped, &mut grads_c);
                assert_eq!(fused.to_bytes(), clipped.to_bytes(), "hidden {hidden}, round {round}");
                assert_eq!(grads_f.norm(), 0.0);
            }
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![4.0]));
        let (mut adam, mut grads) = (Adam::new(&store, 0.05), Gradients::new(&store));
        adam.weight_decay = 1.0;
        // Loss gradient is zero; only decay acts.
        for _ in 0..50 {
            adam.step(&mut store, &mut grads);
        }
        assert!(store.value(id).get(0, 0).abs() < 4.0);
    }
}
