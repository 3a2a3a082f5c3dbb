//! Optimisers consuming the gradients accumulated in a [`ParamStore`].

use crate::params::ParamStore;
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

    /// Applies one update from the gradients currently in `store`, then
    /// zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step_scaled(store, None);
    }

    /// [`Adam::step`] on the gradients times `grad_scale` (a clip factor),
    /// if any: one pass over each parameter that scales, updates and zeroes
    /// the gradient element by element — the f32 operations of
    /// `ParamStore::scale_grads`, then the update, then
    /// [`ParamStore::zero_grads`], in that order.
    pub fn step_scaled(&mut self, store: &mut ParamStore, grad_scale: Option<f32>) {
        assert_eq!(self.m.len(), store.len(), "Adam: store layout changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((value, grad), (m, v)) in
            store.values_grads_mut().zip(self.m.iter_mut().zip(&mut self.v))
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
    use crate::tape::Tape;

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
        let mut adam = Adam::new(&store, 0.2);
        for _ in 0..200 {
            let (mut tape, loss) = quadratic_loss(&store, id);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
        }
        let x = store.value(id).get(0, 0);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
        assert_eq!(adam.steps(), 200);
    }

    #[test]
    fn adam_zeroes_grads_after_step() {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(&store, 0.1);
        let (mut tape, loss) = quadratic_loss(&store, id);
        tape.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0);
        adam.step(&mut store);
        assert_eq!(store.grad_norm(), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![4.0]));
        let mut adam = Adam::new(&store, 0.05);
        adam.weight_decay = 1.0;
        // Loss gradient is zero; only decay acts.
        for _ in 0..50 {
            adam.step(&mut store);
        }
        assert!(store.value(id).get(0, 0).abs() < 4.0);
    }
}
