//! Training CausalTAD: Eq. 9 through the workspace's one optimisation loop,
//! [`tad_autodiff::train::run`]. Adam, mini-batched trajectory losses,
//! gradient clipping, the NaN guard and best-epoch checkpointing live
//! there, and the learning baselines train through the same function; what
//! is here is what only CausalTAD has.
//!
//! Eq. 9 trains `L1 + L2` jointly, but the TG-VAE and the RP-VAE share no
//! parameter and meet only in that `+`, so [`Trainer::fit`] runs them as
//! two **lanes**: the calling thread owns the `tg.*` shard of the
//! [`ParamStore`], a helper thread that lives for the duration of `fit`
//! owns the `rp.*` shard, and each has its own tape and Adam moments. The
//! split is by parameter ownership, not by trajectory, because that is the
//! one split that leaves every floating-point sum where it was: the
//! trained parameters are those of the one-tape loop over
//! [`CausalTad::trajectory_loss_batch`], bit for bit.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tad_autodiff::train::{self, Lane, Lanes, Schedule};
use tad_autodiff::{ParamStore, Tensor};
use tad_trajsim::Trajectory;

use crate::model::CausalTad;
use crate::rpvae::RpVae;

pub use tad_autodiff::train::TrainReport;

/// Drives the optimisation of a [`CausalTad`] model.
pub struct Trainer;

impl Trainer {
    /// Runs the full optimisation under `model.config()`, restoring the
    /// best-epoch parameters at the end.
    ///
    /// The calling thread draws every batch's noise, runs the TG-VAE
    /// lane and makes every decision (it is the one inside
    /// [`train::run`]); the `tad-train-rp` thread runs the RP-VAE lane on
    /// the `rp.*` shard, which is back in `model.store()` when this returns.
    pub fn fit(model: &mut CausalTad, train: &[Trajectory]) -> TrainReport {
        let cfg = model.config();
        let schedule =
            Schedule { epochs: cfg.epochs, batch_size: cfg.batch_size, grad_clip: cfg.grad_clip };
        let lr = cfg.lr;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);

        let mut tg_store = std::mem::take(model.store_mut());
        let rp_store = tg_store.split_off(model.tg_params);
        let shared = &*model;
        let (report, tg_store, rp_store) = thread::scope(|scope| {
            let (jobs, inbox) = mpsc::channel();
            let (outbox, replies) = mpsc::channel();
            let helper = thread::Builder::new()
                .name("tad-train-rp".into())
                .spawn_scoped(scope, move || {
                    rp_lane(&shared.rp, Lane::new(rp_store, lr), inbox, outbox)
                })
                .expect("spawn the RP-VAE lane");
            let tg = Lane::new(tg_store, lr);
            let mut lanes = TwoLanes { model: shared, tg, jobs, replies, rp_sq_norms: Vec::new() };
            let report = train::run(&mut lanes, train, |t| t.len() >= 2, &schedule, &mut rng);
            // Hanging up is what ends the helper's loop.
            drop(lanes.jobs);
            let rp_store = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (report, lanes.tg.finish(), rp_store)
        });

        *model.store_mut() = tg_store;
        model.store_mut().append(rp_store);
        report
    }
}

/// CausalTAD's pair of lanes: the `tg.*` shard here, on the thread that
/// runs the loop, the `rp.*` shard behind a pair of channels. Once the
/// helper has panicked its ends of both are gone, so the next hand-off
/// panics here instead of waiting.
struct TwoLanes<'a> {
    model: &'a CausalTad,
    tg: Lane,
    jobs: Sender<RpJob>,
    replies: Receiver<(f32, Vec<f64>)>,
    /// The helper's squared gradient norms, as its last reply carried them.
    rp_sq_norms: Vec<f64>,
}

const RP_GONE: &str = "the RP-VAE lane is gone";

impl Lanes<Trajectory> for TwoLanes<'_> {
    fn pass(&mut self, batch: &[&Trajectory], scale: f32, rng: &mut StdRng) -> f32 {
        let model = self.model;
        let inputs = model.draw_chunk(batch, rng);
        let (tokens, eps) = (inputs.rp_tokens, inputs.rp_eps);
        self.jobs.send(RpJob::Batch { tokens, eps, scale }).expect(RP_GONE);
        let tg_loss = self.tg.pass(scale, |tape, store| {
            model.tg_chunk_loss(tape, store, &inputs.tg_segments, inputs.tg_eps)
        });
        let (rp_loss, sq_norms) = self.replies.recv().expect(RP_GONE);
        self.rp_sq_norms = sq_norms;
        // The `+` of Eq. 9, in f32 as the one tape adds it.
        tg_loss + rp_loss
    }

    /// One global norm over both shards, folded in id order.
    fn grad_sq_norm(&mut self) -> f64 {
        self.tg.grad_sq_norms().chain(std::mem::take(&mut self.rp_sq_norms)).sum()
    }

    fn step(&mut self, grad_scale: Option<f32>, _rng: &mut StdRng) {
        self.jobs.send(RpJob::Step { grad_scale }).expect(RP_GONE);
        self.tg.step(grad_scale);
    }

    fn discard(&mut self) {
        self.tg.discard();
        self.jobs.send(RpJob::Discard).expect(RP_GONE);
    }

    fn checkpoint(&mut self) {
        self.jobs.send(RpJob::Checkpoint).expect(RP_GONE);
        self.tg.checkpoint();
    }
}

/// What the calling thread asks of the RP-VAE lane, in order.
enum RpJob {
    /// One batch: forward, and backward of `scale·L2`. Answered with the
    /// loss and the shard's per-tensor squared gradient norms, which the
    /// global clip reads.
    Batch { tokens: Vec<u32>, eps: Tensor, scale: f32 },
    /// The batch was accepted: clip by the global factor and step.
    Step { grad_scale: Option<f32> },
    /// The batch was dropped: zero the gradients.
    Discard,
    /// The epoch is the best so far: keep its values.
    Checkpoint,
}

/// The helper thread's loop: serves jobs until the trainer hangs up, then
/// returns the `rp.*` shard holding the best epoch's values.
fn rp_lane(
    rp: &RpVae,
    mut lane: Lane,
    inbox: Receiver<RpJob>,
    outbox: Sender<(f32, Vec<f64>)>,
) -> ParamStore {
    for job in inbox {
        match job {
            RpJob::Batch { tokens, eps, scale } => {
                let loss =
                    lane.pass(scale, |tape, store| rp.loss_with_eps(tape, store, &tokens, eps));
                if outbox.send((loss, lane.grad_sq_norms().collect())).is_err() {
                    break;
                }
            }
            RpJob::Step { grad_scale } => lane.step(grad_scale),
            RpJob::Discard => lane.discard(),
            RpJob::Checkpoint => lane.checkpoint(),
        }
    }
    lane.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CausalTadConfig;
    use rand::seq::SliceRandom;
    use tad_autodiff::optim::Adam;
    use tad_autodiff::{Tape, Var};
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
        let report = Trainer::fit(&mut model, &[]);
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
    fn dropped_batch_leaves_no_trajectory_in_the_epoch_mean() {
        // Batches of four, one tape pass each. One trajectory's input
        // embedding row is NaN, so its batch's loss is NaN and the batch is
        // dropped. The epoch mean must be the mean over the trajectories of
        // the accepted batches only.
        let city = generate_city(&CityConfig::test_scale(305));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
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

        let (accepted_sum, accepted) = accepted_batches(&model, &train);
        assert_eq!(accepted, 8, "exactly one batch of four is dropped");

        let report = Trainer::fit(&mut model, &train);
        assert!(!report.diverged);
        assert_eq!(report.epoch_losses, vec![accepted_sum / accepted as f64]);
    }

    /// The epoch's accepted batches by the one-tape walk (the trainer's
    /// shuffle and noise stream, each batch one pass): their summed loss
    /// and their trajectory count.
    fn accepted_batches(model: &CausalTad, train: &[Trajectory]) -> (f64, usize) {
        let cfg = model.config();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let mut tape = Tape::new();
        let (mut sum, mut count) = (0.0f64, 0usize);
        for batch in order.chunks(cfg.batch_size) {
            let batch: Vec<&Trajectory> = batch.iter().map(|&idx| &train[idx]).collect();
            tape.reset();
            let loss = model.trajectory_loss_batch(&mut tape, &batch, &mut rng);
            let v = tape.value(loss).get(0, 0) as f64;
            if v.is_finite() {
                sum += v;
                count += batch.len();
            }
        }
        (sum, count)
    }

    /// How [`one_tape_fit`] turns a batch into gradients: back-propagates
    /// `scale` times its summed loss into the model's store and returns
    /// that loss.
    type BatchPass = fn(&mut CausalTad, &mut Tape, &[&Trajectory], f32, &mut StdRng) -> f64;

    /// Backward pass of `scale · loss` into the model's store; the loss.
    fn backward_scaled(model: &mut CausalTad, tape: &mut Tape, loss: Var, scale: f32) -> f64 {
        let v = tape.value(loss).get(0, 0) as f64;
        assert!(v.is_finite());
        let scaled = tape.scale(loss, scale);
        tape.backward(scaled, model.store_mut());
        v
    }

    /// The whole batch on one tape: the pass `Trainer::fit` splits into
    /// its two lanes.
    fn whole_batch_pass(
        model: &mut CausalTad,
        tape: &mut Tape,
        batch: &[&Trajectory],
        scale: f32,
        rng: &mut StdRng,
    ) -> f64 {
        tape.reset();
        let loss = model.trajectory_loss_batch(tape, batch, rng);
        backward_scaled(model, tape, loss, scale)
    }

    /// The loop `Trainer::fit` ran before it had lanes: one tape, one
    /// store, one Adam, `L1 + L2` added on the tape, one `pass` per batch.
    /// Kept here as the reference the two-lane loop is pinned to.
    fn one_tape_fit(
        cfg: &CausalTadConfig,
        model: &mut CausalTad,
        train: &[Trajectory],
        pass: BatchPass,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        let mut adam = Adam::new(model.store(), cfg.lr);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut best: Option<(f64, Vec<Tensor>)> = None;
        let mut tape = Tape::new();
        let mut losses = Vec::new();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let (mut epoch_loss, mut counted) = (0.0f64, 0usize);
            for batch in order.chunks(cfg.batch_size) {
                let scale = 1.0 / batch.len() as f32;
                let eligible: Vec<&Trajectory> =
                    batch.iter().map(|&idx| &train[idx]).filter(|t| t.len() >= 2).collect();
                epoch_loss += pass(model, &mut tape, &eligible, scale, &mut rng);
                if cfg.grad_clip > 0.0 {
                    model.store_mut().clip_grad_norm(cfg.grad_clip);
                }
                adam.step(model.store_mut());
                counted += eligible.len();
            }
            let mean = epoch_loss / counted as f64;
            losses.push(mean);
            if best.as_ref().is_none_or(|(b, _)| mean < *b) {
                best = Some((mean, model.store().values().to_vec()));
            }
        }
        model.store_mut().copy_values_from(&best.expect("an epoch ran").1);
        losses
    }

    /// FNV-1a 64 over the `to_bits` of each parameter, with its name.
    fn param_bits(store: &ParamStore) -> Vec<(String, u64)> {
        let fnv = |t: &Tensor| {
            t.data()
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                    (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        store.ids().map(|id| (store.name(id).to_owned(), fnv(store.value(id)))).collect()
    }

    /// The RP-VAE's token embedding: a parameter of the helper's shard.
    fn rp_embed_table(model: &CausalTad) -> tad_autodiff::ParamId {
        let store = model.store();
        store.ids().find(|&id| store.name(id) == "rp.embed.table").expect("RP-VAE embedding")
    }

    #[test]
    fn two_lane_fit_matches_the_one_tape_loop_bit_for_bit() {
        let city = generate_city(&CityConfig::test_scale(306));
        let train = &city.data.train;
        let mut cases: Vec<(String, CausalTadConfig)> = Vec::new();
        // Batches of 3 leave a ragged last batch; 8 is the batch in use.
        for (width, base) in
            [("test_scale", CausalTadConfig::test_scale()), ("default", CausalTadConfig::default())]
        {
            for batch_size in [3, 8] {
                cases.push((
                    format!("{width}, batch_size {batch_size}"),
                    CausalTadConfig { batch_size, ..base.clone() },
                ));
            }
        }
        // The widths `tadbench` trains at beyond those two: `train_eval`'s
        // and `engine_wide_sat`'s.
        cases.push(("paper_scale".into(), CausalTadConfig::paper_scale()));
        let wide = CausalTadConfig {
            embed_dim: 64,
            hidden_dim: 256,
            latent_dim: 32,
            ..CausalTadConfig::test_scale()
        };
        cases.push(("wide".into(), wide));
        let base = CausalTadConfig::test_scale();
        cases.push((
            "time_factorised_scaling".into(),
            CausalTadConfig { time_factorised_scaling: true, ..base.clone() },
        ));
        cases.push((
            "tie_sd_embedding".into(),
            CausalTadConfig { tie_sd_embedding: true, ..base.clone() },
        ));
        cases.push((
            "disable_sd_decoder".into(),
            CausalTadConfig { disable_sd_decoder: true, ..base },
        ));

        for (what, mut cfg) in cases {
            // Three epochs at a learning rate that overshoots: in three of
            // the four test_scale / default cases and at paper_scale an
            // earlier epoch is the best, so the per-lane restore is
            // exercised.
            cfg.epochs = 3;
            cfg.lr = 1e-1;
            let mut reference = CausalTad::new(&city.net, cfg.clone());
            let expected = one_tape_fit(&cfg, &mut reference, train, whole_batch_pass);
            let mut model = CausalTad::new(&city.net, cfg);
            let report = Trainer::fit(&mut model, train);
            assert!(!report.diverged, "{what}");
            assert_eq!(report.epoch_losses, expected, "{what}: epoch losses");
            assert!(model.store().same_layout(reference.store()), "{what}: store layout");
            assert_eq!(param_bits(model.store()), param_bits(reference.store()), "{what}");
        }
    }

    /// The scalar reference, one trajectory per tape: the TG-VAE's unfused
    /// per-op formulation (`TgVae::loss_reference`, GRU steps by
    /// `BoundGru::step_unfused`, one CE node per transition) plus
    /// `RpVae::loss`, drawing the noise in the trainer's order.
    fn scalar_reference_pass(
        model: &mut CausalTad,
        tape: &mut Tape,
        batch: &[&Trajectory],
        scale: f32,
        rng: &mut StdRng,
    ) -> f64 {
        let mut sum = 0.0;
        for t in batch {
            tape.reset();
            let segments: Vec<u32> = t.segments.iter().map(|s| s.0).collect();
            let tokens: Vec<u32> =
                segments.iter().map(|&s| model.rp.token(s, t.time_slot)).collect();
            let (store, cfg) = (model.store(), model.config());
            let tg = model.tg.loss_reference(tape, store, &segments, &model.successors, cfg, rng);
            let rp = model.rp.loss(tape, store, &tokens, rng);
            let loss = tape.add(tg.total, rp);
            sum += backward_scaled(model, tape, loss, scale);
        }
        sum
    }

    #[test]
    fn microbatch_trainer_tracks_the_scalar_reference_per_epoch() {
        // `Trainer::fit` (batched, fused, two lanes) against the
        // formulation it replaced. Both draw identical noise; what differs
        // is f32 reassociation in the batched nodes and the fast-math gate
        // and CE kernels, so the epoch losses agree closely, not bit for
        // bit.
        let city = generate_city(&CityConfig::test_scale(307));
        let train = &city.data.train;
        for (width, base) in
            [("test_scale", CausalTadConfig::test_scale()), ("default", CausalTadConfig::default())]
        {
            let cfg = CausalTadConfig { epochs: 3, ..base };
            let mut reference = CausalTad::new(&city.net, cfg.clone());
            let expected = one_tape_fit(&cfg, &mut reference, train, scalar_reference_pass);
            let mut model = CausalTad::new(&city.net, cfg);
            let report = Trainer::fit(&mut model, train);
            assert_eq!(report.epoch_losses.len(), expected.len(), "{width}");
            for (epoch, (a, b)) in report.epoch_losses.iter().zip(&expected).enumerate() {
                let rel = (a - b).abs() / b.abs().max(1e-12);
                assert!(
                    rel < 1e-6,
                    "{width}: epoch {epoch} loss {a} vs reference {b} (rel {rel:e})"
                );
            }
        }
    }

    #[test]
    fn dropped_batch_on_the_helper_lane_leaves_no_trace() {
        // The twin of `dropped_batch_leaves_no_trajectory_in_the_epoch_mean`
        // with the poison on the RP-VAE's side: the helper's loss is the
        // NaN, and the TG lane has back-propagated its half of the batch by
        // the time it learns so.
        let city = generate_city(&CityConfig::test_scale(305));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
        cfg.batch_size = 4;
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

        let mut model = CausalTad::new(&city.net, cfg.clone());
        let table = rp_embed_table(&model);
        assert!(table.index() >= model.tg_params, "the poison must sit in the helper's shard");
        model.store_mut().value_mut(table).row_mut(poisoned_seg as usize).fill(f32::NAN);

        let (accepted_sum, accepted) = accepted_batches(&model, &train);
        assert_eq!(accepted, 8, "exactly one batch of four is dropped");

        let report = Trainer::fit(&mut model, &train);
        assert!(!report.diverged);
        assert_eq!(report.epoch_losses, vec![accepted_sum / accepted as f64]);
        assert_eq!(model.store().grad_norm(), 0.0, "both shards' gradients are zeroed");

        // The poisoned trajectory as the only batch, at a learning rate that
        // would show a step: none may be taken, on either lane.
        cfg.lr = 1e-2;
        let mut model = CausalTad::new(&city.net, cfg);
        model.store_mut().value_mut(table).row_mut(poisoned_seg as usize).fill(f32::NAN);
        let before = param_bits(model.store());
        let report = Trainer::fit(&mut model, &train[..1]);
        assert!(report.epoch_losses[0].is_nan(), "the only batch was dropped");
        assert_eq!(model.store().grad_norm(), 0.0);
        assert_eq!(param_bits(model.store()), before, "no optimiser step was taken");
    }

    #[test]
    #[should_panic(expected = "the RP-VAE lane is gone")]
    fn a_panic_on_the_helper_lane_is_a_panic_of_fit() {
        let city = generate_city(&CityConfig::test_scale(307));
        let cfg = CausalTadConfig::test_scale();
        let mut model = CausalTad::new(&city.net, cfg.clone());
        let table = rp_embed_table(&model);
        // A one-row table: the helper's first lookup is out of bounds, the
        // TG lane's pass is untouched. `fit` must die, not wait.
        *model.store_mut().value_mut(table) = Tensor::zeros(1, cfg.embed_dim);
        Trainer::fit(&mut model, &city.data.train);
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
