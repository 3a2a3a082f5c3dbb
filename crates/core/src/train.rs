//! Training loop for CausalTAD (and reused by the learning baselines'
//! conventions): Adam, mini-batched trajectory losses, gradient clipping,
//! NaN guards, and best-epoch checkpointing.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use tad_autodiff::optim::Adam;
use tad_autodiff::{ParamStore, Tape};
use tad_trajsim::Trajectory;

use crate::config::CausalTadConfig;
use crate::model::CausalTad;

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean joint loss (`L1 + L2`, Eq. 9) per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock time of the whole fit.
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

/// Drives the optimisation of a [`CausalTad`] model.
pub struct Trainer {
    cfg: CausalTadConfig,
}

impl Trainer {
    /// Creates a trainer from the model configuration.
    pub fn new(cfg: CausalTadConfig) -> Self {
        Trainer { cfg }
    }

    /// Runs the full optimisation, restoring the best-epoch parameters at
    /// the end (the paper reports the model performing best on validation).
    pub fn fit(&self, model: &mut CausalTad, train: &[Trajectory]) -> TrainReport {
        let start = Instant::now();
        let mut report = TrainReport {
            epoch_losses: Vec::with_capacity(self.cfg.epochs),
            wall_time: Duration::ZERO,
            num_trajectories: train.len(),
            diverged: false,
        };
        if train.is_empty() {
            report.wall_time = start.elapsed();
            return report;
        }

        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x7ea1);
        let mut adam = Adam::new(&model.store, self.cfg.lr);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut best: Option<(f64, ParamStore)> = None;
        let mut tape = Tape::new();

        let micro_batch = self.cfg.micro_batch.max(1);
        'epochs: for _epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut counted = 0usize;
            let mut bad_batches = 0usize;

            for batch in order.chunks(self.cfg.batch_size) {
                let scale = 1.0 / batch.len() as f32;
                let mut batch_loss = 0.0f64;
                let mut batch_ok = true;
                // Micro-batching: pack several trajectories into one tape
                // pass with row-stacked hidden states. The gradient of the
                // summed (then 1/batch-scaled) loss equals the sum of the
                // per-trajectory scaled gradients, so optimiser steps see
                // the same update as the sequential path up to f32
                // reassociation.
                let eligible: Vec<&Trajectory> =
                    batch.iter().map(|&idx| &train[idx]).filter(|t| t.len() >= 2).collect();
                for chunk in eligible.chunks(micro_batch) {
                    tape.reset();
                    let loss = model.trajectory_loss_batch(&mut tape, chunk, &mut rng);
                    let v = tape.value(loss).get(0, 0) as f64;
                    if !v.is_finite() {
                        batch_ok = false;
                        break;
                    }
                    let scaled = tape.scale(loss, scale);
                    tape.backward(scaled, &mut model.store);
                    batch_loss += v;
                }
                if !batch_ok {
                    // NaN guard: drop the poisoned gradients entirely.
                    model.store.zero_grads();
                    bad_batches += 1;
                    if bad_batches > 3 {
                        report.diverged = true;
                        break 'epochs;
                    }
                    continue;
                }
                if self.cfg.grad_clip > 0.0 {
                    model.store.clip_grad_norm(self.cfg.grad_clip);
                }
                adam.step(&mut model.store);
                // Only an accepted batch enters the epoch mean, numerator
                // and denominator alike: a batch dropped at a later chunk
                // must not leave its earlier chunks in the count.
                epoch_loss += batch_loss;
                counted += eligible.len();
            }

            let mean = if counted > 0 { epoch_loss / counted as f64 } else { f64::NAN };
            report.epoch_losses.push(mean);
            if mean.is_finite() && best.as_ref().is_none_or(|(b, _)| mean < *b) {
                best = Some((mean, model.store.clone()));
            }
        }

        if let Some((_, best_store)) = best {
            model.store.copy_values_from(&best_store);
        }
        report.wall_time = start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn loss_decreases_over_epochs() {
        let city = generate_city(&CityConfig::test_scale(300));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 5;
        let mut model = CausalTad::new(&city.net, cfg);
        let report = model.fit(&city.data.train);
        assert_eq!(report.epoch_losses.len(), 5);
        assert!(!report.diverged);
        assert!(report.final_loss() < report.epoch_losses[0], "losses: {:?}", report.epoch_losses);
        assert!(
            report.best_loss() <= report.final_loss() + 1e-9,
            "best {} vs final {} (losses: {:?})",
            report.best_loss(),
            report.final_loss(),
            report.epoch_losses
        );
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let city = generate_city(&CityConfig::test_scale(301));
        let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
        let report = Trainer::new(CausalTadConfig::test_scale()).fit(&mut model, &[]);
        assert!(report.epoch_losses.is_empty());
        assert_eq!(report.num_trajectories, 0);
        assert!(!report.diverged);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let city = generate_city(&CityConfig::test_scale(302));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let run = |cfg: CausalTadConfig| {
            let mut model = CausalTad::new(&city.net, cfg);
            model.fit(&city.data.train).final_loss()
        };
        assert_eq!(run(cfg.clone()), run(cfg));
    }

    #[test]
    fn microbatch_matches_sequential_trainer_losses() {
        // The acceptance bar of the vectorised training path: micro-batched
        // training must reach losses within 1e-6 relative tolerance of the
        // sequential (micro_batch = 1) trainer after equal epochs. Both
        // paths draw identical reparameterisation noise; the only
        // differences are f32 reduction reassociation in the batched
        // CE/KL/GEMM nodes.
        let city = generate_city(&CityConfig::test_scale(304));
        let mut seq_cfg = CausalTadConfig::test_scale();
        seq_cfg.epochs = 3;
        seq_cfg.micro_batch = 1;
        let mut mb_cfg = seq_cfg.clone();
        mb_cfg.micro_batch = 4;
        let mut seq_model = CausalTad::new(&city.net, seq_cfg.clone());
        let seq = Trainer::new(seq_cfg).fit(&mut seq_model, &city.data.train);
        let mut mb_model = CausalTad::new(&city.net, mb_cfg.clone());
        let mb = Trainer::new(mb_cfg).fit(&mut mb_model, &city.data.train);
        assert_eq!(seq.epoch_losses.len(), mb.epoch_losses.len());
        for (epoch, (a, b)) in seq.epoch_losses.iter().zip(&mb.epoch_losses).enumerate() {
            let rel = (a - b).abs() / a.abs().max(1e-12);
            assert!(rel < 1e-6, "epoch {epoch} losses diverged: {a} vs {b} (rel {rel:e})");
        }
    }

    #[test]
    fn dropped_batch_leaves_no_trajectory_in_the_epoch_mean() {
        // micro_batch 1 under batch_size 4: a batch is four one-trajectory
        // chunks. One trajectory's input embedding row is NaN, so its batch
        // is dropped at that chunk — after earlier chunks of the same batch
        // were already evaluated. The epoch mean must be the mean over the
        // trajectories of the accepted batches only.
        let city = generate_city(&CityConfig::test_scale(305));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
        cfg.micro_batch = 1;
        cfg.batch_size = 4;
        // A zero learning rate keeps the parameters fixed, so the expected
        // losses below need no optimiser of their own.
        cfg.lr = 0.0;
        let poisoned_seg = city.data.train[0].segments[0].0;
        let train: Vec<Trajectory> = city
            .data
            .train
            .iter()
            .enumerate()
            .filter(|&(i, t)| i == 0 || t.segments.iter().all(|s| s.0 != poisoned_seg))
            .map(|(_, t)| t.clone())
            .take(12)
            .collect();
        assert_eq!(train.len(), 12);

        let mut model = CausalTad::new(&city.net, cfg.clone());
        let table = model
            .store()
            .ids()
            .find(|&id| model.store().name(id) == "tg.traj_embed.table")
            .expect("decoder input embedding");
        model.store_mut().value_mut(table).row_mut(poisoned_seg as usize).fill(f32::NAN);

        // The trainer's own walk (same shuffle, same noise stream).
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let mut tape = Tape::new();
        let (mut accepted_sum, mut accepted) = (0.0f64, 0usize);
        let mut evaluated_before_the_drop = 0;
        for batch in order.chunks(cfg.batch_size) {
            let mut losses = Vec::new();
            for &idx in batch {
                tape.reset();
                let loss = model.trajectory_loss_batch(&mut tape, &[&train[idx]], &mut rng);
                losses.push(tape.value(loss).get(0, 0) as f64);
                if !losses[losses.len() - 1].is_finite() {
                    break;
                }
            }
            if losses.iter().all(|v| v.is_finite()) {
                accepted_sum += losses.iter().sum::<f64>();
                accepted += losses.len();
            } else {
                evaluated_before_the_drop = losses.len() - 1;
            }
        }
        assert_eq!(accepted, 8, "exactly one batch of four is dropped");
        assert!(evaluated_before_the_drop > 0, "the poisoned chunk must not lead its batch");

        let report = Trainer::new(cfg).fit(&mut model, &train);
        assert!(!report.diverged);
        assert_eq!(report.epoch_losses, vec![accepted_sum / accepted as f64]);
    }

    #[test]
    fn parameters_stay_finite() {
        let city = generate_city(&CityConfig::test_scale(303));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 3;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        assert!(model.store().all_finite());
    }
}
