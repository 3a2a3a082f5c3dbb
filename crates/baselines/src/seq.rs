//! Shared sequence-model machinery for the learning baselines.
//!
//! All six learning baselines (SAE, VSAE, β-VAE, FactorVAE, GM-VSAE,
//! DeepTEA) are encoder/decoder GRUs over road-segment tokens that differ
//! only in their latent treatment. This module provides:
//!
//! * [`SeqCore`] — embeddings, encoder GRU, decoder GRU and the full-vocab
//!   output projection (the baselines do *not* use CausalTAD's
//!   road-constrained projection — that is one of its contributions);
//! * [`fit_store`] — the baselines' entry to the workspace's one
//!   optimisation loop, [`tad_autodiff::train::run`], which CausalTAD
//!   trains through too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tad_autodiff::nn::{ragged_schedule, Embedding, GaussianHead, GruCell, Linear};
use tad_autodiff::train::{self, Lane, OneLane, TrainReport};
use tad_autodiff::{logsumexp, ParamStore, Tape, Tensor, Var};
use tad_trajsim::Trajectory;

use crate::detector::BaselineConfig;

/// Shared encoder/decoder backbone.
#[derive(Clone, Debug)]
pub struct SeqCore {
    /// Token embeddings (shared by encoder and decoder).
    pub embed: Embedding,
    /// Encoder GRU.
    pub enc_gru: GruCell,
    /// Decoder GRU.
    pub dec_gru: GruCell,
    /// Full-vocabulary output projection (row-major).
    pub out: Linear,
    /// Optional departure-slot embedding appended to every GRU input
    /// (DeepTEA's time conditioning).
    pub slot_embed: Option<Embedding>,
    hidden: usize,
}

impl SeqCore {
    /// Registers the backbone parameters. `time_aware` adds the slot
    /// embedding.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        cfg: &BaselineConfig,
        time_aware: bool,
        rng: &mut R,
    ) -> Self {
        let de = cfg.embed_dim;
        let dh = cfg.hidden_dim;
        let slot_dim = if time_aware { de / 2 } else { 0 };
        SeqCore {
            embed: Embedding::new(store, &format!("{name}.embed"), vocab, de, rng),
            enc_gru: GruCell::new(store, &format!("{name}.enc_gru"), de + slot_dim, dh, rng),
            dec_gru: GruCell::new(store, &format!("{name}.dec_gru"), de + slot_dim, dh, rng),
            out: Linear::new_rowmajor(store, &format!("{name}.out"), dh, vocab, rng),
            slot_embed: if time_aware {
                Some(Embedding::new(
                    store,
                    &format!("{name}.slot"),
                    cfg.num_time_slots,
                    slot_dim,
                    rng,
                ))
            } else {
                None
            },
            hidden: dh,
        }
    }

    /// Runs `gru` teacher-forced over a chunk of sequences from `h0` (one
    /// row each) along their ragged schedule ([`ragged_schedule`]), which
    /// it returns with every step's hidden rows, stacked time-major. Every
    /// input is known up front, so the chunk is one embedding lookup (plus
    /// one slot lookup), one input-gate GEMM and one recurrence node
    /// whatever its lengths; each row is bit-identical to stepping
    /// [`GruCell::infer_step_rows`].
    fn hidden_rows(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        gru: &GruCell,
        h0: Var,
        seqs: &[impl AsRef<[u32]>],
        slots: &[u8],
    ) -> (Var, Vec<Vec<u32>>) {
        let lens: Vec<usize> = seqs.iter().map(|s| s.as_ref().len()).collect();
        let schedule = ragged_schedule(&lens);
        let at = |t: usize, i: u32| seqs[i as usize].as_ref()[t];
        let steps = schedule.iter().enumerate();
        let tokens: Vec<u32> =
            steps.flat_map(|(t, rows)| rows.iter().map(move |&i| at(t, i))).collect();
        let mut x = self.embed.lookup(tape, store, &tokens);
        if let Some(se) = &self.slot_embed {
            let ids: Vec<u32> =
                schedule.iter().flatten().map(|&i| slots[i as usize] as u32).collect();
            let s = se.lookup(tape, store, &ids);
            x = tape.concat_cols(x, s);
        }
        let bound = gru.bind(tape, store);
        let gx = bound.input_gates(tape, x);
        (bound.sequence(tape, gx, h0, &schedule), schedule)
    }

    /// Runs the encoder GRU over a chunk of non-empty sequences (`slots[i]`
    /// is sequence `i`'s departure slot), returning each one's final
    /// hidden state, in chunk order (`chunk x hidden`).
    pub fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        seqs: &[impl AsRef<[u32]>],
        slots: &[u8],
    ) -> Var {
        assert!(seqs.iter().all(|s| !s.as_ref().is_empty()), "encode: empty sequence");
        let h0 = tape.input(Tensor::zeros(seqs.len(), self.hidden));
        let (rows, schedule) = self.hidden_rows(tape, store, &self.enc_gru, h0, seqs, slots);
        // The time-major row of each sequence's last step.
        let mut last = vec![0u32; seqs.len()];
        for (row, &i) in schedule.iter().flatten().enumerate() {
            last[i as usize] = row as u32;
        }
        tape.select_rows(rows, &last)
    }

    /// Teacher-forced reconstruction loss of a chunk of sequences from
    /// initial decoder states `h0` (one row each): `Σ_i Σ_j CE(g(h_ij),
    /// t_i,j+1)` over the full vocabulary — one head GEMM and one
    /// cross-entropy node over every transition of the chunk.
    pub fn decode_nll(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h0: Var,
        seqs: &[impl AsRef<[u32]>],
        slots: &[u8],
    ) -> Var {
        let inputs: Vec<&[u32]> =
            seqs.iter().map(|s| s.as_ref()).map(|s| &s[..s.len().saturating_sub(1)]).collect();
        if inputs.iter().all(|s| s.is_empty()) {
            return tape.scalar(0.0);
        }
        let (rows, schedule) = self.hidden_rows(tape, store, &self.dec_gru, h0, &inputs, slots);
        let next = |t: usize, i: u32| seqs[i as usize].as_ref()[t + 1];
        let steps = schedule.iter().enumerate();
        let targets: Vec<u32> =
            steps.flat_map(|(t, rows)| rows.iter().map(move |&i| next(t, i))).collect();
        let logits = self.out.forward(tape, store, rows);
        tape.softmax_cross_entropy(logits, &targets)
    }

    // ----- tape-free inference -------------------------------------------

    /// The tape-free [`SeqCore::hidden_rows`] of one sequence: the same
    /// one lookup, one input-gate GEMM and one packed `U`, stepped through
    /// [`GruCell::infer_sequence`].
    fn infer_hidden_rows(
        &self,
        store: &ParamStore,
        gru: &GruCell,
        h0: &[f32],
        tokens: &[u32],
        slot: u8,
    ) -> Tensor {
        let mut x = self.embed.embed(store, tokens);
        if let Some(se) = &self.slot_embed {
            let (e, s) = (x, se.embed(store, &[slot as u32]));
            x = Tensor::zeros(tokens.len(), e.cols() + s.cols());
            for t in 0..tokens.len() {
                let (seg_part, slot_part) = x.row_mut(t).split_at_mut(e.cols());
                seg_part.copy_from_slice(e.row(t));
                slot_part.copy_from_slice(s.row(0));
            }
        }
        gru.infer_sequence(store, &gru.input_gates(store, &x), h0)
    }

    /// Tape-free encoder pass: the final hidden row.
    pub fn infer_encode(&self, store: &ParamStore, segments: &[u32], slot: u8) -> Vec<f32> {
        let h0 = vec![0.0; self.hidden];
        let Some(last) = segments.len().checked_sub(1) else {
            return h0;
        };
        let rows = self.infer_hidden_rows(store, &self.enc_gru, &h0, segments, slot);
        rows.row(last).to_vec()
    }

    /// The tape-free posterior of a VAE baseline: `segments` encoded, the
    /// `head`'s `(mu, logvar)` at the encoding, and the decoder's initial
    /// state `tanh(dec_init · mu)` — the posterior mean stands in for a
    /// sample.
    pub fn infer_posterior(
        &self,
        store: &ParamStore,
        head: &GaussianHead,
        dec_init: &Linear,
        segments: &[u32],
        slot: u8,
    ) -> Posterior {
        let h = self.infer_encode(store, segments, slot);
        let latent = head.latent_dim();
        let (mut mu, mut logvar) = (vec![0.0; latent], vec![0.0; latent]);
        head.infer(store, &h, &mut mu, &mut logvar);
        let mut h0 = vec![0.0; self.hidden];
        dec_init.infer(store, &mu, &mut h0);
        h0.iter_mut().for_each(|x| *x = x.tanh());
        Posterior { mu, logvar, h0 }
    }

    /// Tape-free reconstruction NLL from initial decoder state `h0`: every
    /// step's hidden row, then one head GEMM over all of them.
    pub fn infer_decode_nll(
        &self,
        store: &ParamStore,
        h0: &[f32],
        segments: &[u32],
        slot: u8,
    ) -> f64 {
        if segments.len() < 2 {
            return 0.0;
        }
        let (inputs, targets) = (&segments[..segments.len() - 1], &segments[1..]);
        let rows = self.infer_hidden_rows(store, &self.dec_gru, h0, inputs, slot);
        let mut logits = Tensor::zeros(rows.rows(), self.out.out_dim());
        self.out.infer(store, rows.data(), logits.data_mut());
        let nll = |(t, &next): (usize, &u32)| {
            let row = logits.row(t);
            (logsumexp(row) - row[next as usize]) as f64
        };
        targets.iter().enumerate().map(nll).sum()
    }
}

/// What [`SeqCore::infer_posterior`] gives a VAE baseline to score with.
pub struct Posterior {
    /// Posterior mean.
    pub mu: Vec<f32>,
    /// Posterior log-variance.
    pub logvar: Vec<f32>,
    /// The decoder's initial state at the mean.
    pub h0: Vec<f32>,
}

/// Raw token view of a trajectory.
pub fn tokens(traj: &Trajectory) -> Vec<u32> {
    traj.segments.iter().map(|s| s.0).collect()
}

/// A chunk's token lists and departure slots, in chunk order: what
/// [`SeqCore::encode`] and [`SeqCore::decode_nll`] read.
pub(crate) fn chunk_tokens(chunk: &[&Trajectory]) -> (Vec<Vec<u32>>, Vec<u8>) {
    (chunk.iter().map(|t| tokens(t)).collect(), chunk.iter().map(|t| t.time_slot).collect())
}

/// One standard-normal `latent`-wide row per trajectory of a chunk of `n`,
/// each drawn as its own `1 x latent` sample in chunk order — so a
/// trajectory draws the values it would alone, whatever the chunk
/// (one `n`-row draw would pair Box–Muller values across rows).
pub(crate) fn chunk_noise(n: usize, latent: usize, rng: &mut StdRng) -> Tensor {
    let rows = (0..n).flat_map(|_| Tensor::randn(1, latent, 0.0, 1.0, rng).data().to_vec());
    Tensor::from_vec(n, latent, rows.collect())
}

/// Optimises `store` under `cfg` against a closure from a batch of
/// trajectories to its summed loss, one tape pass per batch: the one-lane
/// case of [`train::run`], shuffle and noise from one stream seeded
/// `cfg.seed ^ 0xba5e`, the store left on its best epoch's values.
pub fn fit_store<F>(
    store: &mut ParamStore,
    cfg: &BaselineConfig,
    data: &[Trajectory],
    loss: F,
) -> TrainReport
where
    F: FnMut(&mut Tape, &ParamStore, &[&Trajectory], &mut StdRng) -> Var,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xba5e);
    let mut one = OneLane { lane: Lane::new(std::mem::take(store), cfg.lr), loss };
    let report = train::run(&mut one, data, |t| t.len() >= 2, &cfg.schedule(), &mut rng);
    *store = one.lane.finish();
    report
}

/// What the pins of the learned baselines compare [`fit_store`] with.
#[cfg(test)]
pub(crate) mod reference {
    use rand::seq::SliceRandom;
    use tad_autodiff::optim::Adam;
    use tad_autodiff::Gradients;
    use tad_codec::checksum64;

    use super::*;

    /// `seq::train_loop` as it stood before the baselines moved onto
    /// [`train::run`], with the eligible trajectories of each batch handed
    /// to `loss` in tape passes of `per_pass` whose gradients accumulate
    /// into one step: `cfg.batch_size` is the loop [`fit_store`] is pinned
    /// to bit for bit, `1` the per-example loop the baselines trained
    /// through before.
    pub(crate) fn train_loop<F>(
        store: &mut ParamStore,
        cfg: &BaselineConfig,
        data: &[Trajectory],
        per_pass: usize,
        mut loss: F,
    ) -> Vec<f64>
    where
        F: FnMut(&mut Tape, &ParamStore, &[&Trajectory], &mut StdRng) -> Var,
    {
        let mut losses = Vec::with_capacity(cfg.epochs);
        if data.is_empty() {
            return losses;
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xba5e);
        let (mut adam, mut grads) = (Adam::new(store, cfg.lr), Gradients::new(store));
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut best: Option<(f64, Vec<Tensor>)> = None;
        let mut tape = Tape::new();

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut counted = 0usize;
            for batch in order.chunks(cfg.batch_size) {
                let scale = 1.0 / batch.len() as f32;
                let eligible: Vec<&Trajectory> =
                    batch.iter().map(|&idx| &data[idx]).filter(|t| t.len() >= 2).collect();
                let mut batch_loss = 0.0;
                let mut ok = true;
                for chunk in eligible.chunks(per_pass) {
                    tape.reset();
                    let loss = loss(&mut tape, store, chunk, &mut rng);
                    let v = tape.value(loss).get(0, 0) as f64;
                    if !v.is_finite() {
                        ok = false;
                        break;
                    }
                    let scaled = tape.scale(loss, scale);
                    tape.backward(scaled, store, &mut grads);
                    batch_loss += v;
                }
                if !ok {
                    grads.zero();
                    continue;
                }
                // The clip the parent loop applied before each step, as the
                // factor the step scales the gradients by.
                let norm = grads.sq_norms().sum::<f64>().sqrt();
                let factor = Gradients::clip_factor(norm, cfg.grad_clip);
                adam.step_scaled(store, &mut grads, factor);
                // Only an accepted batch enters the epoch mean: a batch dropped
                // at a later pass must not leave its earlier ones counted.
                epoch_loss += batch_loss;
                counted += eligible.len();
            }
            let mean = if counted > 0 { epoch_loss / counted as f64 } else { f64::NAN };
            losses.push(mean);
            if mean.is_finite() && best.as_ref().is_none_or(|(b, _)| mean < *b) {
                best = Some((mean, store.values().cloned().collect()));
            }
        }
        if let Some((_, best_values)) = best {
            store.copy_values_from(&best_values);
        }
        losses
    }

    /// How far, relative, an epoch loss of `fit` (one tape pass per
    /// batch) may sit from the per-example loop's: the two draw the same
    /// noise, so they differ by f32 reassociation alone, carried through
    /// the optimiser's steps.
    const PER_EPOCH_TOL: f64 = 1e-6;

    /// Asserts that `fit`'s epoch losses track the per-example loop's
    /// within [`PER_EPOCH_TOL`], and prints the worst gap seen.
    pub(crate) fn assert_tracks(got: &[f64], expected: &[f64], what: &str) {
        assert_eq!(got.len(), expected.len(), "{what}: epochs");
        let rel = |(a, b): (&f64, &f64)| (a - b).abs() / b.abs().max(1e-12);
        let worst = got.iter().zip(expected).map(rel).fold(0.0, f64::max);
        eprintln!("{what}: worst per-epoch rel {worst:e}");
        assert!(worst < PER_EPOCH_TOL, "{what}: {got:?} vs {expected:?} (worst rel {worst:e})");
    }

    /// FNV-1a 64 over the `to_bits` of each parameter, with its name.
    pub(crate) fn param_bits(store: &ParamStore) -> Vec<(String, u64)> {
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

    /// What the golden pins compare: FNV-1a 64 of a fitted model's
    /// parameter blob (names, shapes, every value's bits) and of its scores'
    /// bits, in order.
    pub(crate) fn trained_digest(store: &ParamStore, scores: impl Iterator<Item = f64>) -> String {
        let scores: Vec<u8> = scores.flat_map(|s| s.to_bits().to_le_bytes()).collect();
        let (params, scores) = (checksum64(&store.to_bytes()), checksum64(&scores));
        format!("params {params:#018x} scores {scores:#018x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_autodiff::Gradients;

    #[test]
    fn core_encode_decode_shapes() {
        let cfg = BaselineConfig::test_scale();
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "t", 4, &cfg, false, &mut rng);
        let mut tape = Tape::new();
        let h = core.encode(&mut tape, &store, &[[0u32, 1, 2]], &[0]);
        assert_eq!(tape.value(h).shape(), (1, cfg.hidden_dim));
        let nll = core.decode_nll(&mut tape, &store, h, &[[0u32, 1, 2]], &[0]);
        assert!(tape.value(nll).get(0, 0) > 0.0);

        // No per-token or per-trajectory loop on the tape: a ragged chunk
        // of longer sequences records exactly as many nodes as one short
        // sequence.
        let short = tape.len();
        tape.reset();
        let chunk: [&[u32]; 3] = [&[0, 1, 2, 3, 0, 1, 2, 3, 0], &[2, 3], &[1, 2, 3, 0]];
        let h = core.encode(&mut tape, &store, &chunk, &[0, 1, 2]);
        assert_eq!(tape.value(h).shape(), (3, cfg.hidden_dim));
        core.decode_nll(&mut tape, &store, h, &chunk, &[0, 1, 2]);
        assert_eq!(tape.len(), short);
    }

    #[test]
    fn a_chunk_loss_is_the_sum_of_its_one_trajectory_chunks() {
        // Encode-then-decode (SAE's loss) over a ragged chunk with a
        // 2-token trajectory, with and without the slot embedding: the
        // loss and every parameter gradient of the chunk's one pass equal
        // the sum over one-trajectory passes, up to f32 reassociation.
        let cfg = BaselineConfig::test_scale();
        let chunk: [&[u32]; 4] = [&[0, 1, 2, 3, 4, 5], &[2, 3], &[5, 0, 1, 2], &[4, 1, 3]];
        let slots = [0u8, 3, 1, 3];
        for time_aware in [false, true] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut store = ParamStore::new();
            let core = SeqCore::new(&mut store, "t", 6, &cfg, time_aware, &mut rng);
            let mut tape = Tape::new();
            let mut pass = |grads: &mut Gradients, seqs: &[&[u32]], slots: &[u8]| {
                tape.reset();
                let h = core.encode(&mut tape, &store, seqs, slots);
                let nll = core.decode_nll(&mut tape, &store, h, seqs, slots);
                let loss = tape.value(nll).get(0, 0) as f64;
                tape.backward(nll, &store, grads);
                loss
            };
            let mut whole = Gradients::new(&store);
            let batched = pass(&mut whole, &chunk, &slots);
            let mut each = Gradients::new(&store);
            let summed: f64 =
                (0..chunk.len()).map(|i| pass(&mut each, &chunk[i..=i], &slots[i..=i])).sum();
            let rel = (batched - summed).abs() / summed.abs();
            assert!(
                rel < 1e-6,
                "time_aware {time_aware}: loss {batched} vs {summed} (rel {rel:e})"
            );
            for id in store.ids() {
                let (a, b) = (whole.get(id).data(), each.get(id).data());
                let scale = b.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                assert!(scale > 0.0, "{} has no gradient", store.name(id));
                let gap = a.iter().zip(b).fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()));
                assert!(
                    gap <= 1e-6 * scale,
                    "time_aware {time_aware}: {} gradient gap {gap:e} of {scale:e}",
                    store.name(id)
                );
            }
        }
    }

    #[test]
    fn time_aware_core_uses_slot() {
        let cfg = BaselineConfig::test_scale();
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "t", 4, &cfg, true, &mut rng);
        // Different slots must produce different encodings.
        let h0 = core.infer_encode(&store, &[0, 1, 2], 0);
        let h1 = core.infer_encode(&store, &[0, 1, 2], 3);
        assert_ne!(h0, h1);
    }

    #[test]
    fn infer_decode_matches_taped_decode() {
        let cfg = BaselineConfig::test_scale();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let core = SeqCore::new(&mut store, "t", 4, &cfg, false, &mut rng);
        let segs = [0u32, 1, 2, 3];
        let mut tape = Tape::new();
        let h = core.encode(&mut tape, &store, &[segs], &[0]);
        let nll = core.decode_nll(&mut tape, &store, h, &[segs], &[0]);
        let taped = tape.value(nll).get(0, 0) as f64;
        let h_inf = core.infer_encode(&store, &segs, 0);
        let inferred = core.infer_decode_nll(&store, &h_inf, &segs, 0);
        assert!((taped - inferred).abs() < 1e-4, "{taped} vs {inferred}");
    }
}
