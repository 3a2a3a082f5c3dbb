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
    /// The calling thread draws every micro-batch's noise, runs the TG-VAE
    /// lane and makes every decision (it is the one inside
    /// [`train::run`]); the `tad-train-rp` thread runs the RP-VAE lane on
    /// the `rp.*` shard, which is back in `model.store()` when this returns.
    pub fn fit(model: &mut CausalTad, train: &[Trajectory]) -> TrainReport {
        let cfg = model.config();
        let schedule = Schedule {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            micro_batch: cfg.micro_batch,
            grad_clip: cfg.grad_clip,
        };
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
    fn pass(&mut self, chunk: &[&Trajectory], scale: f32, last: bool, rng: &mut StdRng) -> f32 {
        let model = self.model;
        let inputs = model.draw_chunk(chunk, rng);
        let (tokens, eps) = (inputs.rp_tokens, inputs.rp_eps);
        self.jobs.send(RpJob::Chunk { tokens, eps, scale, want_sq_norms: last }).expect(RP_GONE);
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
    /// One micro-batch: forward, and backward of `scale·L2`. Answered with
    /// the loss and — when asked, i.e. on the last chunk of a clipped
    /// batch — the shard's per-tensor squared gradient norms.
    Chunk { tokens: Vec<u32>, eps: Tensor, scale: f32, want_sq_norms: bool },
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
            RpJob::Chunk { tokens, eps, scale, want_sq_norms } => {
                let loss =
                    lane.pass(scale, |tape, store| rp.loss_with_eps(tape, store, &tokens, eps));
                let sq_norms =
                    if want_sq_norms { lane.grad_sq_norms().collect() } else { Vec::new() };
                if outbox.send((loss, sq_norms)).is_err() {
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
        let mut seq_model = CausalTad::new(&city.net, seq_cfg);
        let seq = Trainer::fit(&mut seq_model, &city.data.train);
        let mut mb_model = CausalTad::new(&city.net, mb_cfg);
        let mb = Trainer::fit(&mut mb_model, &city.data.train);
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

        let report = Trainer::fit(&mut model, &train);
        assert!(!report.diverged);
        assert_eq!(report.epoch_losses, vec![accepted_sum / accepted as f64]);
    }

    /// What [`one_tape_fit`] evaluates per chunk of a batch.
    type ChunkLoss = fn(&CausalTad, &mut Tape, &[&Trajectory], &mut StdRng) -> Var;

    /// The loop `Trainer::fit` ran before it had lanes: one tape, one
    /// store, one Adam, `L1 + L2` added on the tape, each batch cut into
    /// chunks of `micro_batch`. Kept here as the reference the two-lane
    /// loop is pinned to.
    fn one_tape_fit(
        cfg: &CausalTadConfig,
        model: &mut CausalTad,
        train: &[Trajectory],
        micro_batch: usize,
        chunk_loss: ChunkLoss,
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
                for chunk in eligible.chunks(micro_batch.max(1)) {
                    tape.reset();
                    let loss = chunk_loss(model, &mut tape, chunk, &mut rng);
                    let v = tape.value(loss).get(0, 0) as f64;
                    assert!(v.is_finite());
                    let scaled = tape.scale(loss, scale);
                    tape.backward(scaled, model.store_mut());
                    epoch_loss += v;
                }
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
        for (width, base) in
            [("test_scale", CausalTadConfig::test_scale()), ("default", CausalTadConfig::default())]
        {
            for micro_batch in [1, 3, 8] {
                cases.push((
                    format!("{width}, micro_batch {micro_batch}"),
                    CausalTadConfig { micro_batch, ..base.clone() },
                ));
            }
        }
        // The widths `tadbench` trains at beyond those two: `train_eval`'s
        // and `engine_wide_sat`'s, at their micro-batch.
        cases.push(("paper_scale, micro_batch 8".into(), CausalTadConfig::paper_scale()));
        let wide = CausalTadConfig {
            embed_dim: 64,
            hidden_dim: 256,
            latent_dim: 32,
            ..CausalTadConfig::test_scale()
        };
        cases.push(("wide, micro_batch 8".into(), wide));
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
            // Three epochs at a learning rate that overshoots: in the six
            // test_scale / default x micro_batch cases the second epoch is
            // the best, so the per-lane restore is exercised.
            cfg.epochs = 3;
            cfg.lr = 1e-1;
            let mut reference = CausalTad::new(&city.net, cfg.clone());
            let expected = one_tape_fit(
                &cfg,
                &mut reference,
                train,
                cfg.micro_batch,
                CausalTad::trajectory_loss_batch,
            );
            let mut model = CausalTad::new(&city.net, cfg);
            let report = Trainer::fit(&mut model, train);
            assert!(!report.diverged, "{what}");
            assert_eq!(report.epoch_losses, expected, "{what}: epoch losses");
            assert!(model.store().same_layout(reference.store()), "{what}: store layout");
            assert_eq!(param_bits(model.store()), param_bits(reference.store()), "{what}");
        }
    }

    /// The scalar reference loss of a one-trajectory chunk: the TG-VAE's
    /// unfused per-op formulation (`TgVae::loss_reference`, GRU steps by
    /// `BoundGru::step_unfused`, one CE node per transition) plus
    /// `RpVae::loss`, drawing the noise in the trainer's order.
    fn scalar_reference_loss(
        model: &CausalTad,
        tape: &mut Tape,
        chunk: &[&Trajectory],
        rng: &mut StdRng,
    ) -> Var {
        let [t] = chunk else { panic!("the scalar reference takes one trajectory per tape") };
        let segments: Vec<u32> = t.segments.iter().map(|s| s.0).collect();
        let tokens: Vec<u32> = segments.iter().map(|&s| model.rp.token(s, t.time_slot)).collect();
        let (store, cfg) = (model.store(), model.config());
        let tg = model.tg.loss_reference(tape, store, &segments, &model.successors, cfg, rng);
        let rp = model.rp.loss(tape, store, &tokens, rng);
        tape.add(tg.total, rp)
    }

    #[test]
    fn microbatch_trainer_tracks_the_scalar_reference_per_epoch() {
        // `Trainer::fit` (micro-batched, fused, two lanes) against the
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
            let expected = one_tape_fit(&cfg, &mut reference, train, 1, scalar_reference_loss);
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
        // NaN, and the TG lane has back-propagated its half of the chunk by
        // the time it learns so.
        let city = generate_city(&CityConfig::test_scale(305));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 1;
        cfg.micro_batch = 1;
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

        // Epoch mean over the accepted batches, by the one-tape walk.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        let mut tape = Tape::new();
        let (mut accepted_sum, mut accepted) = (0.0f64, 0usize);
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
            }
        }
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
