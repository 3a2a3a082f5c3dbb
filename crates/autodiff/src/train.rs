//! The optimisation loop every learned model here trains through — the one
//! protocol the paper's Tables 1–2 hold CausalTAD and its learned baselines
//! to (§VI-A5): Adam over shuffled mini-batches, keep the best epoch.
//!
//! [`run`] owns every *decision* and asks the *work* of a [`Lanes`]
//! implementation. A [`Lane`] is one shard of a model's parameters with all
//! that training adds to it — gradients, tape, Adam moments, the best
//! epoch's values — allocated when the lane is made and dropped with it,
//! so the store a lane hands back holds values only. [`OneLane`] drives one
//! from a loss closure (the sequence baselines), `causaltad::Trainer` two,
//! each on a thread of its own. The loop is generic over the item type,
//! so this crate knows no trajectory.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::optim::Adam;
use crate::params::{Gradients, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean loss per item over each epoch's accepted batches (for CausalTAD
    /// the joint `L1 + L2` of Eq. 9).
    pub epoch_losses: Vec<f64>,
    /// Wall-clock time of the optimisation loop.
    pub wall_time: Duration,
    /// Number of trajectories used.
    pub num_trajectories: usize,
    /// True when non-finite losses forced an early stop.
    pub diverged: bool,
}

impl TrainReport {
    /// Final epoch loss (NaN when no epoch ran).
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }

    /// Best (lowest) epoch loss.
    pub fn best_loss(&self) -> f64 {
        self.epoch_losses.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// What [`run`] reads of a model's hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Passes over the items.
    pub epochs: usize,
    /// Items per optimiser step, and per tape pass (0 is read as 1).
    pub batch_size: usize,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f64,
}

/// The work of one optimisation: one lane or several, on this thread or
/// others.
pub trait Lanes<T> {
    /// Forward pass of one batch's summed loss, which it returns, and —
    /// when that is finite — backward pass of `scale` times it. When the
    /// loss is finite, [`Lanes::grad_sq_norm`] is the next call.
    fn pass(&mut self, batch: &[&T], scale: f32, rng: &mut StdRng) -> f32;

    /// Every gradient's squared L2 norm, summed in parameter-id order.
    fn grad_sq_norm(&mut self) -> f64;

    /// The batch is accepted: scale the gradients by `grad_scale`, if any,
    /// and take one optimiser step (which zeroes them).
    fn step(&mut self, grad_scale: Option<f32>, rng: &mut StdRng);

    /// The batch is dropped: zero the gradients.
    fn discard(&mut self);

    /// The epoch that just ended is the best so far: keep its values.
    fn checkpoint(&mut self);
}

/// Trains `lanes` on `items`; the best epoch's values are what the lanes
/// kept at their last [`Lanes::checkpoint`] (the paper reports the model
/// performing best on validation). `rng` shuffles each epoch and is handed
/// on to the lanes for their noise: one stream orders all that is random.
///
/// A mini-batch is `batch_size` items of the shuffled order, each weighted
/// one over the batch's length; those `eligible` make one pass, and one
/// optimiser step follows. A batch with a non-finite loss is dropped and
/// more than three drops in an epoch end the run as diverged.
pub fn run<T>(
    lanes: &mut impl Lanes<T>,
    items: &[T],
    eligible: impl Fn(&T) -> bool,
    schedule: &Schedule,
    rng: &mut StdRng,
) -> TrainReport {
    let start = Instant::now();
    let mut epoch_losses = Vec::with_capacity(schedule.epochs);
    let mut diverged = false;
    let batch_size = schedule.batch_size.max(1);
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut best_loss = f64::INFINITY;
    let epochs = if items.is_empty() { 0 } else { schedule.epochs };

    'epochs: for _epoch in 0..epochs {
        order.shuffle(rng);
        let (mut epoch_loss, mut counted, mut bad_batches) = (0.0f64, 0usize, 0usize);
        for batch in order.chunks(batch_size) {
            let scale = 1.0 / batch.len() as f32;
            let passed: Vec<&T> =
                batch.iter().map(|&idx| &items[idx]).filter(|&t| eligible(t)).collect();
            if passed.is_empty() {
                // No pass, no gradient — but a step would still move every
                // parameter by its stale momentum.
                continue;
            }
            let batch_loss = lanes.pass(&passed, scale, rng) as f64;
            if !batch_loss.is_finite() {
                // NaN guard: drop the poisoned gradients entirely.
                lanes.discard();
                bad_batches += 1;
                if bad_batches > 3 {
                    diverged = true;
                    break 'epochs;
                }
                continue;
            }
            let grad_scale =
                Gradients::clip_factor(lanes.grad_sq_norm().sqrt(), schedule.grad_clip);
            lanes.step(grad_scale, rng);
            // Only an accepted batch enters the epoch mean, numerator and
            // denominator alike.
            epoch_loss += batch_loss;
            counted += passed.len();
        }
        let mean = if counted > 0 { epoch_loss / counted as f64 } else { f64::NAN };
        epoch_losses.push(mean);
        if mean.is_finite() && mean < best_loss {
            best_loss = mean;
            lanes.checkpoint();
        }
    }
    TrainReport {
        epoch_losses,
        wall_time: start.elapsed(),
        num_trajectories: items.len(),
        diverged,
    }
}

/// One shard of a model's parameters under optimisation: its gradients,
/// the tape its passes are recorded on, its Adam moments, and the best
/// epoch's values.
pub struct Lane {
    store: ParamStore,
    grads: Gradients,
    tape: Tape,
    adam: Adam,
    best: Option<Vec<Tensor>>,
}

impl Lane {
    /// Takes `store` for the length of a run, with zeroed gradients and
    /// moments aligned to it; [`Lane::finish`] returns it.
    pub fn new(store: ParamStore, lr: f32) -> Self {
        let (grads, adam) = (Gradients::new(&store), Adam::new(&store, lr));
        Lane { store, grads, tape: Tape::new(), adam, best: None }
    }

    /// Forward pass of the loss `build` records, and — when the loss is
    /// finite — the backward pass of `scale` times it into the shard's
    /// gradients. Returns the loss. (A lane cannot see another's loss, so
    /// it back-propagates a batch the other lane will get dropped; the
    /// drop zeroes those gradients.) Either way the tape holds none of
    /// the store's tensors afterwards, so the step writes them in place.
    pub fn pass(&mut self, scale: f32, build: impl FnOnce(&mut Tape, &ParamStore) -> Var) -> f32 {
        self.tape.reset();
        let loss = build(&mut self.tape, &self.store);
        let v = self.tape.value(loss).get(0, 0);
        if v.is_finite() {
            let scaled = self.tape.scale(loss, scale);
            self.tape.backward(scaled, &self.store, &mut self.grads);
        } else {
            self.tape.reset();
        }
        v
    }

    /// Squared L2 norm of each of the shard's gradients, in id order.
    pub fn grad_sq_norms(&self) -> impl Iterator<Item = f64> + '_ {
        self.grads.sq_norms()
    }

    /// One Adam step on the gradients clipped by the global factor, if
    /// any, which zeroes the shard's gradients: one pass per parameter.
    pub fn step(&mut self, grad_scale: Option<f32>) {
        self.adam.step_scaled(&mut self.store, &mut self.grads, grad_scale);
    }

    /// Zeroes the shard's gradients.
    pub fn discard(&mut self) {
        self.grads.zero();
    }

    /// Keeps the current values as the best epoch's, copied into the
    /// snapshot the first checkpoint allocated: never two snapshots alive.
    pub fn checkpoint(&mut self) {
        let values = self.store.values();
        match &mut self.best {
            Some(best) => {
                for (kept, value) in best.iter_mut().zip(values) {
                    kept.data_mut().copy_from_slice(value.data());
                }
            }
            None => self.best = Some(values.cloned().collect()),
        }
    }

    /// The shard, holding the best epoch's values (the last epoch's when
    /// none was checkpointed). Everything else the lane held — gradients,
    /// tape, moments, snapshot — is dropped here.
    pub fn finish(mut self) -> ParamStore {
        if let Some(best) = &self.best {
            self.store.copy_values_from(best);
        }
        self.store
    }
}

/// The one-lane case of [`Lanes`]: every parameter in `lane`, a batch's
/// summed loss recorded by `loss`.
pub struct OneLane<F> {
    /// The whole model's parameters.
    pub lane: Lane,
    /// `(tape, parameters, batch, rng)` to the batch's summed loss.
    pub loss: F,
}

impl<T, F> Lanes<T> for OneLane<F>
where
    F: FnMut(&mut Tape, &ParamStore, &[&T], &mut StdRng) -> Var,
{
    fn pass(&mut self, batch: &[&T], scale: f32, rng: &mut StdRng) -> f32 {
        let loss = &mut self.loss;
        self.lane.pass(scale, |tape, store| loss(tape, store, batch, rng))
    }

    fn grad_sq_norm(&mut self) -> f64 {
        self.lane.grad_sq_norms().sum()
    }

    fn step(&mut self, grad_scale: Option<f32>, _rng: &mut StdRng) {
        self.lane.step(grad_scale);
    }

    fn discard(&mut self) {
        self.lane.discard();
    }

    fn checkpoint(&mut self) {
        self.lane.checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;
    use rand::SeedableRng;

    type BatchLoss<T> = Box<dyn FnMut(&mut Tape, &ParamStore, &[&T], &mut StdRng) -> Var>;

    fn schedule(epochs: usize, batch_size: usize) -> Schedule {
        Schedule { epochs, batch_size, grad_clip: 5.0 }
    }

    /// A one-parameter model `x`, started at `x0`.
    fn toy_store(x0: f32) -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(1, 1, vec![x0]));
        (store, id)
    }

    /// `Σ (x − item)²` over the batch: the items are the targets.
    fn sq_err(id: ParamId) -> BatchLoss<f32> {
        Box::new(move |tape, store, batch, _| {
            let x = tape.param(store, id);
            let mut total = tape.scalar(0.0);
            for &&target in batch {
                let shifted = tape.add_scalar(x, -target);
                let sq = tape.mul(shifted, shifted);
                total = tape.add(total, sq);
            }
            total
        })
    }

    /// An item takes a pass when it is not negative.
    fn non_negative(item: &f32) -> bool {
        *item >= 0.0
    }

    #[test]
    fn train_loop_reduces_loss() {
        let (store, id) = toy_store(-5.0);
        let mut lane = OneLane { lane: Lane::new(store, 0.2), loss: sq_err(id) };
        let data = [2.0f32, 2.5, 3.0, 3.5, 4.0, 3.0];
        let mut rng = StdRng::seed_from_u64(2);
        let losses = run(&mut lane, &data, non_negative, &schedule(6, 8), &mut rng).epoch_losses;
        assert_eq!(losses.len(), 6);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn train_loop_leaves_a_dropped_batch_out_of_the_epoch_mean() {
        // Item `i` costs `i + 1`, except one that comes back NaN and
        // poisons its batch.
        let (n, poisoned, batch_size) = (10u32, 7u32, 4usize);
        let data: Vec<u32> = (0..n).collect();
        let passed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen = passed.clone();
        let loss: BatchLoss<u32> = Box::new(move |tape, _, batch, _| {
            let items: Vec<u32> = batch.iter().map(|&&i| i).collect();
            let cost = |i: u32| if i == poisoned { f32::NAN } else { (i + 1) as f32 };
            let total = items.iter().map(|&i| cost(i)).sum();
            seen.borrow_mut().push(items);
            tape.scalar(total)
        });
        let mut lane = OneLane { lane: Lane::new(ParamStore::new(), 1e-3), loss };
        let mut rng = StdRng::seed_from_u64(0xba5e);
        let losses =
            run(&mut lane, &data, |_| true, &schedule(1, batch_size), &mut rng).epoch_losses;
        // One pass per batch; the poisoned one is dropped whole, the rest
        // are accepted.
        let passed = passed.borrow();
        assert_eq!(passed.len(), 3, "10 items in batches of 4");
        let (dropped, accepted): (Vec<&Vec<u32>>, Vec<&Vec<u32>>) =
            passed.iter().partition(|b| b.contains(&poisoned));
        assert_eq!(dropped.len(), 1);
        let accepted: Vec<u32> = accepted.into_iter().flatten().copied().collect();
        let expected =
            accepted.iter().map(|&i| (i + 1) as f64).sum::<f64>() / accepted.len() as f64;
        assert_eq!(losses, vec![expected]);
    }

    #[test]
    fn train_loop_empty_data_noop() {
        let loss: BatchLoss<f32> = Box::new(|tape, _, _, _| tape.scalar(0.0));
        let mut lane = OneLane { lane: Lane::new(ParamStore::new(), 1e-3), loss };
        let mut rng = StdRng::seed_from_u64(0);
        let losses = run(&mut lane, &[], non_negative, &schedule(3, 8), &mut rng).epoch_losses;
        assert!(losses.is_empty());
    }

    #[test]
    fn a_batch_with_no_eligible_item_takes_no_step() {
        // One item per batch, two of every three ineligible. Such a batch
        // has no gradient, but an Adam step on it would still advance `t`,
        // decay both moments and move `x` by the momentum the eligible
        // batches left: the run must be, to the bit, the run without them.
        let fit = |data: &[f32]| {
            let (store, id) = toy_store(-5.0);
            let mut lane = OneLane { lane: Lane::new(store, 0.2), loss: sq_err(id) };
            let mut rng = StdRng::seed_from_u64(7);
            let report = run(&mut lane, data, non_negative, &schedule(4, 1), &mut rng);
            let steps = lane.lane.adam.steps();
            (report.epoch_losses, steps, lane.lane.finish().value(id).get(0, 0).to_bits())
        };
        let (losses, steps, bits) = fit(&[3.0, -1.0, -1.0]);
        assert_eq!(steps, 4, "one step per epoch: the eligible item's");
        assert_eq!((losses, steps, bits), fit(&[3.0]));

        // And with nothing eligible at all: no step, no drop, no mean.
        let (store, id) = toy_store(-5.0);
        let mut lane = OneLane { lane: Lane::new(store, 0.2), loss: sq_err(id) };
        let mut rng = StdRng::seed_from_u64(7);
        let report = run(&mut lane, &[-1.0f32; 5], non_negative, &schedule(2, 1), &mut rng);
        assert!(!report.diverged, "an empty batch is not a dropped one");
        assert!(report.epoch_losses.iter().all(|l| l.is_nan()), "{:?}", report.epoch_losses);
        assert_eq!(lane.lane.adam.steps(), 0);
        assert_eq!(lane.lane.finish().value(id).get(0, 0).to_bits(), (-5.0f32).to_bits());
    }

    #[test]
    fn a_finished_lane_hands_back_values_only() {
        // A pass leaves gradients no step consumed: they, the tape's hold
        // on the values and the moments end with the lane, and the store it
        // hands back is the one it took, names and values.
        let (store, id) = toy_store(-5.0);
        let blob = store.to_bytes();
        let mut lane = Lane::new(store, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let loss = lane.pass(1.0, |tape, store| sq_err(id)(tape, store, &[&3.0], &mut rng));
        assert_eq!(loss, 64.0);
        assert_eq!(lane.grad_sq_norms().collect::<Vec<_>>(), [256.0]);
        let store = lane.finish();
        assert_eq!(store.to_bytes(), blob, "no step was taken");
        let value = store.shared_value(id);
        assert_eq!(std::sync::Arc::strong_count(&value), 2, "only the store holds the value");
        drop(value);
        // Gradients are the lane's: a new one on the same store starts at zero.
        let lane = Lane::new(store, 0.2);
        assert_eq!(lane.grad_sq_norms().collect::<Vec<_>>(), [0.0]);
    }

    #[test]
    fn zero_batch_and_micro_batch_sizes_are_read_as_one() {
        let fit = |batch_size: usize| {
            let (store, id) = toy_store(-5.0);
            let mut lane = OneLane { lane: Lane::new(store, 0.2), loss: sq_err(id) };
            let mut rng = StdRng::seed_from_u64(3);
            let report = run(
                &mut lane,
                &[2.0f32, 3.0, 4.0],
                non_negative,
                &schedule(3, batch_size),
                &mut rng,
            );
            (report.epoch_losses, lane.lane.finish().value(id).get(0, 0).to_bits())
        };
        assert_eq!(fit(0), fit(1));
    }
}
