//! Trajectory Generation VAE (TG-VAE, paper §V-B).
//!
//! Estimates the likelihood term `P(c, t)` of the debiased anomaly score.
//! Its two departures from a standard sequence VAE are exactly the paper's:
//!
//! 1. **Explicit SD modelling** — the posterior `Q1(R | c)` is computed from
//!    the SD pair only (not the trajectory), so it never needs re-encoding
//!    while a trajectory is being generated online; an *SD decoder*
//!    reconstructs `(s, d)` from `r` to prevent posterior collapse.
//! 2. **Road-constrained prediction** — the trajectory decoder only scores
//!    the successors of the current segment, so popular SD pairs cannot
//!    dominate the optimisation of the whole road network, and each update
//!    costs `O(d · |successors|)`.

use rand::Rng;

use tad_autodiff::nn::{gaussian_kl, ragged_schedule, Embedding, GaussianHead, GruCell, Linear};
use tad_autodiff::{logsumexp, PackedRhs, ParamStore, Tape, Tensor, Var};

use crate::config::CausalTadConfig;

/// Penalty NLL assigned when a transition is not in the successor set
/// (cannot happen on data generated by this repo's simulator, but guards
/// against malformed external input).
pub const OFF_GRAPH_NLL: f64 = 20.0;

/// The TG-VAE module: SD encoder `Φe`, SD decoder `Φc`, trajectory decoder
/// `Φt`.
#[derive(Clone, Debug)]
pub struct TgVae {
    /// `E_c`: embeddings of SD tokens.
    sd_embed: Embedding,
    /// `E_r`: embeddings of trajectory tokens.
    traj_embed: Embedding,
    /// First stage of `Φe` (before the Gaussian head).
    enc: Linear,
    /// Gaussian head producing `(mu_r, logvar_r)`.
    head: GaussianHead,
    /// Projects `r` to the decoder's initial hidden state `h_0`.
    dec_init: Linear,
    /// Hidden stage of the SD decoder `Φc`.
    sd_dec_hidden: Linear,
    /// Source prediction head (row-major, full vocabulary).
    src_head: Linear,
    /// Destination prediction head (row-major, full vocabulary).
    dst_head: Linear,
    /// The autoregressive trajectory decoder RNN.
    gru: GruCell,
    /// Next-segment projection `g(·)` (row-major so successor subsets are
    /// cheap).
    out_proj: Linear,
    latent_dim: usize,
}

/// Differentiable loss pieces of one trajectory, all on the same tape.
pub struct TgLoss {
    /// Total `L1` (Eq. for `L1(c, t)`).
    pub total: Var,
    /// Number of next-segment prediction terms contributing.
    pub steps: usize,
}

impl TgVae {
    /// Registers all parameters in `store`: the one list of their names
    /// and shapes, which initialises a fresh store and checks a decoded one.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        vocab: usize,
        cfg: &CausalTadConfig,
        rng: &mut R,
    ) -> Self {
        let de = cfg.embed_dim;
        let dh = cfg.hidden_dim;
        let dl = cfg.latent_dim;
        let traj_embed = Embedding::new(store, "tg.traj_embed", vocab, de, rng);
        TgVae {
            sd_embed: if cfg.tie_sd_embedding {
                traj_embed.clone()
            } else {
                Embedding::new(store, "tg.sd_embed", vocab, de, rng)
            },
            traj_embed,
            enc: Linear::new(store, "tg.enc", de.saturating_mul(2), dh, rng),
            head: GaussianHead::new(store, "tg.head", dh, dl, rng),
            dec_init: Linear::new(store, "tg.dec_init", dl, dh, rng),
            sd_dec_hidden: Linear::new(store, "tg.sd_dec_hidden", dl, dh, rng),
            src_head: Linear::new_rowmajor(store, "tg.src_head", dh, vocab, rng),
            dst_head: Linear::new_rowmajor(store, "tg.dst_head", dh, vocab, rng),
            gru: GruCell::new(store, "tg.gru", de, dh, rng),
            out_proj: Linear::new_rowmajor(store, "tg.out_proj", dh, vocab, rng),
            latent_dim: dl,
        }
    }

    /// Builds the training loss `L1(c, t)` for one trajectory on `tape`.
    ///
    /// `successors[prev]` must hold the candidate next segments of `prev`
    /// (the road-network constraint). When
    /// `cfg.disable_road_constraint` is set the decoder scores the full
    /// vocabulary instead (ablation). Delegates to [`TgVae::loss_batch`]
    /// with a single-trajectory batch.
    pub fn loss<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        segments: &[u32],
        successors: &[Vec<u32>],
        cfg: &CausalTadConfig,
        rng: &mut R,
    ) -> TgLoss {
        let eps = Tensor::randn(1, self.latent_dim, 0.0, 1.0, rng);
        self.loss_batch(tape, store, &[segments], eps, successors, cfg)
    }

    /// Builds the summed training loss `Σ_i L1(c_i, t_i)` for a batch
    /// of trajectories in **one** tape pass.
    ///
    /// Hidden states are row-stacked (`batch x hidden`, mirroring the
    /// inference-side `advance_batch`), shrinking as shorter trajectories
    /// run out of transitions, so the GRU recurrence runs one
    /// matrix-matrix product per step instead of `batch` matrix-vector
    /// products. The ragged schedule is planned up front
    /// ([`tad_autodiff::nn::ragged_schedule`]), the input-gate
    /// projection of every (step, trajectory) pair is one GEMM, and the
    /// whole recurrence is **one** tape node
    /// ([`tad_autodiff::nn::BoundGru::sequence`]:
    /// the recurrent weight is packed once per pass, its gradient is one
    /// GEMM) that returns every step's hidden rows stacked time-major.
    /// The prediction heads batch over that stack: the full-vocab
    /// ablation runs a single `(N x d)·(d x vocab)` GEMM + fused CE over
    /// every transition of every trajectory, and the road-constrained path
    /// scores every valid transition of the batch in **one** fused
    /// subset-CE node ([`tad_autodiff::nn::Linear::subset_cross_entropy`]),
    /// each row against its own successor span, in stacking order.
    ///
    /// `eps` holds one pre-drawn standard-normal row per trajectory (the
    /// caller controls the rng stream so a batch and its trajectories one
    /// at a time consume identical randomness). The summed loss matches the sum of
    /// per-trajectory [`TgVae::loss`] values up to f32 reassociation of the
    /// CE/KL reductions (documented tolerance ~1e-6 relative).
    pub fn loss_batch(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        trajs: &[&[u32]],
        eps: Tensor,
        successors: &[Vec<u32>],
        cfg: &CausalTadConfig,
    ) -> TgLoss {
        let b = trajs.len();
        assert!(b > 0, "loss_batch needs at least one trajectory");
        for t in trajs {
            assert!(t.len() >= 2, "trajectory must have at least 2 segments");
        }
        assert_eq!(eps.shape(), (b, self.latent_dim), "loss_batch: eps shape");
        let s_ids: Vec<u32> = trajs.iter().map(|t| t[0]).collect();
        let d_ids: Vec<u32> = trajs.iter().map(|t| *t.last().expect("non-empty")).collect();

        // --- SD encoder: Q1(R | c), batched across trajectories ---------
        let s_emb = self.sd_embed.lookup(tape, store, &s_ids);
        let d_emb = self.sd_embed.lookup(tape, store, &d_ids);
        let sd = tape.concat_cols(s_emb, d_emb);
        let enc_pre = self.enc.forward(tape, store, sd);
        let enc_h = tape.tanh(enc_pre);
        let (mu, logvar) = self.head.forward(tape, store, enc_h);
        let kl = tape.kl_std_normal(mu, logvar);
        let r = tape.gaussian_sample(mu, logvar, eps);

        // --- SD decoder: P(c | r) (posterior-collapse guard) ------------
        let mut total = kl;
        if !cfg.disable_sd_decoder {
            let sd_pre = self.sd_dec_hidden.forward(tape, store, r);
            let sd_h = tape.relu(sd_pre);
            let src_logits = self.src_head.forward(tape, store, sd_h);
            let src_ce = tape.softmax_cross_entropy(src_logits, &s_ids);
            let dst_logits = self.dst_head.forward(tape, store, sd_h);
            let dst_ce = tape.softmax_cross_entropy(dst_logits, &d_ids);
            let sd_ce = tape.add(src_ce, dst_ce);
            total = tape.add(total, sd_ce);
        }

        // --- Trajectory decoder: batched ragged recurrence --------------
        let init_pre = self.dec_init.forward(tape, store, r);
        let h = tape.tanh(init_pre);
        let bound = self.gru.bind(tape, store);
        let transitions: Vec<usize> = trajs.iter().map(|t| t.len() - 1).collect();
        let schedule = ragged_schedule(&transitions);
        // One record per stacked hidden row: (prev segment, next segment).
        let preds: Vec<(u32, u32)> = schedule
            .iter()
            .enumerate()
            .flat_map(|(t, act)| {
                act.iter().map(move |&i| (trajs[i as usize][t], trajs[i as usize][t + 1]))
            })
            .collect();
        let all_prevs: Vec<u32> = preds.iter().map(|&(prev, _)| prev).collect();
        let x_all = self.traj_embed.lookup(tape, store, &all_prevs);
        let gx_all = bound.input_gates(tape, x_all);
        let rows_h = bound.sequence(tape, gx_all, h, &schedule);
        let steps;

        if cfg.disable_road_constraint {
            // Full-vocab ablation: every transition in one GEMM + one CE —
            // the LM-TAD-style "full-vocab next-token loss" is a single
            // node instead of one per step.
            let targets: Vec<u32> = preds.iter().map(|&(_, next)| next).collect();
            let logits = self.out_proj.forward(tape, store, rows_h);
            let ce = tape.softmax_cross_entropy(logits, &targets);
            total = tape.add(total, ce);
            steps = targets.len();
        } else {
            // Road-constrained: every valid transition of the whole
            // batch is scored by ONE fused subset-CE node — per-row
            // candidate spans index straight into the row-major `out_proj`
            // weight, so there is no per-transition gather/matmul/CE
            // bookkeeping. Transitions outside the successor set contribute
            // no gradient (they cannot be expressed by the constrained
            // decoder); scoring assigns them OFF_GRAPH_NLL instead.
            let mut valid_rows: Vec<u32> = Vec::with_capacity(preds.len());
            let mut cands_flat: Vec<u32> = Vec::with_capacity(preds.len() * 4);
            let mut offsets: Vec<u32> = Vec::with_capacity(preds.len() + 1);
            let mut targets: Vec<u32> = Vec::with_capacity(preds.len());
            offsets.push(0);
            for (row, &(prev, next)) in preds.iter().enumerate() {
                let cands = successors[prev as usize].as_slice();
                let Some(pos) = cands.iter().position(|&c| c == next) else { continue };
                valid_rows.push(row as u32);
                cands_flat.extend_from_slice(cands);
                offsets.push(cands_flat.len() as u32);
                targets.push(pos as u32);
            }
            steps = valid_rows.len();
            if steps > 0 {
                let sub = if steps == preds.len() {
                    rows_h
                } else {
                    tape.select_rows(rows_h, &valid_rows)
                };
                let ce = self.out_proj.subset_cross_entropy(
                    tape,
                    store,
                    sub,
                    &cands_flat,
                    &offsets,
                    &targets,
                );
                total = tape.add(total, ce);
            }
        }

        TgLoss { total, steps }
    }

    // ----- inference (tape-free) ----------------------------------------
    //
    // Everything below steps against an [`InferencePlan`] — what is fixed
    // per model, derived once — through a caller-owned [`StepScratch`], so
    // a pushed segment allocates nothing. One row and a tile of rows run
    // the same code.

    /// Derives the model's [`InferencePlan`] from its current parameters;
    /// `with_sd_heads` when trip starts charge `-log P(c | r)`
    /// (`score_includes_sd_nll`).
    pub(crate) fn build_plan(&self, store: &ParamStore, with_sd_heads: bool) -> InferencePlan {
        let table = store.value(self.traj_embed.table());
        InferencePlan {
            gx: self.gru.input_gates(store, table),
            u: self.gru.pack_recurrent(store),
            sd_heads: with_sd_heads.then(|| [self.src_head.pack(store), self.dst_head.pack(store)]),
        }
    }

    /// Opens a trip: encodes the SD pair to the posterior mean `r = mu` of
    /// `Q1(R | c)` and returns the decoder's initial hidden row
    /// `h_0 = tanh(W r)` with the trip's fixed NLL — the closed-form KL of
    /// `Q1` against the standard normal, plus `-log P(c | r)` under the SD
    /// decoder when the plan carries its heads. The row and the
    /// intermediates live in `buf`: nothing is allocated.
    pub(crate) fn start<'b>(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        buf: &'b mut Vec<f32>,
        s: u32,
        d: u32,
    ) -> (&'b [f32], f64) {
        let (de, dh, dl) = (self.sd_embed.dim(), self.gru.hidden(), self.latent_dim);
        let vocab = if plan.sd_heads.is_some() { self.src_head.out_dim() } else { 0 };
        buf.resize(2 * de + 3 * dh + 2 * dl + vocab, 0.0);
        let (sd, rest) = buf.split_at_mut(2 * de);
        let (enc_h, rest) = rest.split_at_mut(dh);
        let (mu, rest) = rest.split_at_mut(dl);
        let (logvar, rest) = rest.split_at_mut(dl);
        let (sd_h, rest) = rest.split_at_mut(dh);
        let (logits, h) = rest.split_at_mut(vocab);

        let table = store.value(self.sd_embed.table());
        sd[..de].copy_from_slice(table.row(s as usize));
        sd[de..].copy_from_slice(table.row(d as usize));
        self.enc.infer(store, sd, enc_h);
        enc_h.iter_mut().for_each(|x| *x = x.tanh());
        self.head.infer(store, enc_h, mu, logvar);
        let kl = gaussian_kl(mu, logvar);

        let mut sd_nll = 0.0;
        if let Some([src, dst]) = &plan.sd_heads {
            self.sd_dec_hidden.infer(store, mu, sd_h);
            sd_h.iter_mut().for_each(|x| *x = x.max(0.0));
            self.src_head.infer_packed(store, src, sd_h, logits);
            sd_nll = nll_from_logits(logits, s as usize);
            self.dst_head.infer_packed(store, dst, sd_h, logits);
            sd_nll += nll_from_logits(logits, d as usize);
        }

        self.dec_init.infer(store, mu, h);
        h.iter_mut().for_each(|x| *x = x.tanh());
        (h, kl + sd_nll)
    }

    /// `-log P(t_next | h, successors(prev))` under the road-constrained
    /// projection; [`OFF_GRAPH_NLL`] when `next` is not a successor of
    /// `prev`. `logits` is scratch.
    pub(crate) fn step_nll(
        &self,
        store: &ParamStore,
        logits: &mut Vec<f32>,
        h: &[f32],
        cands: &[u32],
        next: u32,
    ) -> f64 {
        let Some(pos) = cands.iter().position(|&c| c == next) else {
            return OFF_GRAPH_NLL;
        };
        nll_from_logits(self.candidate_logits(store, logits, h, cands), pos)
    }

    /// Raw next-segment logits over a candidate set (scoring, and
    /// trajectory generation), written to `logits`: the candidates' dot
    /// products advance together, nothing is gathered.
    pub(crate) fn candidate_logits<'l>(
        &self,
        store: &ParamStore,
        logits: &'l mut Vec<f32>,
        h: &[f32],
        cands: &[u32],
    ) -> &'l [f32] {
        logits.resize(cands.len(), 0.0);
        self.out_proj.infer_subset_row(store, h, cands, logits);
        logits
    }

    // ----- batched inference (fleet scoring) -----------------------------

    /// Rows per tile of a scoring wave (see
    /// [`GruCell::infer_tile_rows`]): [`crate::CausalTad::push_batch`]
    /// walks a wide batch in tiles of this height, so the working set is
    /// one tile whatever the batch width.
    pub fn wave_tile_rows(&self) -> usize {
        self.gru.infer_tile_rows()
    }

    /// Advances a tile of decoder states at once: row `i` of `hs` (the
    /// tile's stacked hidden rows) consumes `segs[i]`, and its new hidden
    /// row is written to the `i`-th slice `out` yields — a row of the
    /// scratch's output tile, which the wave rounds into its session.
    /// `gh` is `rows x 3·hidden` scratch. One `tile x hidden` product
    /// against the
    /// plan's packed `U` instead of `tile` matrix-vector steps, and the
    /// input-gate projection is a row of the plan's table. Row `i` of the
    /// result depends on row `i` alone, bit for bit.
    pub(crate) fn advance_batch<'o>(
        &self,
        plan: &InferencePlan,
        hs: &[f32],
        segs: &[u32],
        gh: &mut [f32],
        out: impl IntoIterator<Item = &'o mut [f32]>,
    ) {
        debug_assert_eq!(hs.len(), segs.len() * self.gru.hidden(), "advance_batch: batch size");
        self.gru.infer_step_rows(&plan.u, |r| plan.gx.row(segs[r] as usize), hs, gh, out);
    }
}

/// What tape-free scoring derives from a model's parameters once instead
/// of per pushed segment: the decoder GRU's per-token input-gate
/// projections, its recurrent weight in the matmul kernel's packed layout,
/// and — when trip starts charge the SD reconstruction — the two
/// full-vocabulary SD heads, packed. `vocab·3h + h·3h` floats (plus
/// `2·vocab·h` with the heads). Built by [`TgVae::build_plan`]; describes
/// the parameters it was built from and nothing later.
#[derive(Debug)]
pub(crate) struct InferencePlan {
    /// `E · W + b` for every token (`vocab x 3h`).
    gx: Tensor,
    /// `U` (`h x 3h`), packed.
    u: PackedRhs,
    /// `src_head` and `dst_head` weights (`vocab x h`), packed transposed.
    sd_heads: Option<[PackedRhs; 2]>,
}

impl InferencePlan {
    /// Heap footprint in bytes.
    pub(crate) fn bytes(&self) -> usize {
        let heads = self.sd_heads.iter().flatten().map(PackedRhs::bytes).sum::<usize>();
        self.gx.len() * std::mem::size_of::<f32>() + self.u.bytes() + heads
    }
}

/// Reusable buffers of the tape-free step: a tile's stacked hidden rows,
/// gate pre-activations and new hidden rows, and one small buffer for
/// whatever a row needs besides (candidate logits; a trip start's
/// intermediates). They only grow, so a warm scratch makes the step
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    hs: Vec<f32>,
    gh: Vec<f32>,
    out: Vec<f32>,
    pub(crate) buf: Vec<f32>,
}

impl StepScratch {
    /// The stacked-hidden (`rows x hidden`), gate (`rows x 3·hidden`) and
    /// new-hidden (`rows x hidden`) buffers of a tile, and the small
    /// buffer.
    pub(crate) fn tile(
        &mut self,
        rows: usize,
        hidden: usize,
    ) -> (&mut [f32], &mut [f32], &mut [f32], &mut Vec<f32>) {
        self.hs.resize(rows * hidden, 0.0);
        self.gh.resize(rows * 3 * hidden, 0.0);
        self.out.resize(rows * hidden, 0.0);
        (&mut self.hs, &mut self.gh, &mut self.out, &mut self.buf)
    }
}

/// A handle onto a model's resident inference plan
/// ([`crate::CausalTad::build_step_cache`]). It borrows the model, so the
/// parameters cannot change while it is held.
#[derive(Clone, Copy, Debug)]
pub struct StepCache<'m> {
    pub(crate) plan: &'m InferencePlan,
}

impl StepCache<'_> {
    /// Heap footprint of the plan, for capacity planning in serving layers.
    pub fn bytes(&self) -> usize {
        self.plan.bytes()
    }
}

/// `-log softmax(logits)[target]` in f64.
pub(crate) fn nll_from_logits(logits: &[f32], target: usize) -> f64 {
    (logsumexp(logits) - logits[target]) as f64
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_autodiff::Gradients;

    fn toy_successors() -> Vec<Vec<u32>> {
        // 6-segment toy graph: i -> {(i+1) % 6, (i+2) % 6}
        (0..6u32).map(|i| vec![(i + 1) % 6, (i + 2) % 6]).collect()
    }

    /// Advances one decoder hidden row with segment `seg`, in place: the
    /// one-row case of [`TgVae::advance_batch`].
    fn advance(
        tg: &TgVae,
        plan: &InferencePlan,
        scratch: &mut StepScratch,
        h: &mut [f32],
        seg: u32,
    ) {
        let (hs, gh, _, _) = scratch.tile(1, h.len());
        hs.copy_from_slice(h);
        tg.advance_batch(plan, hs, &[seg], gh, [h]);
    }

    fn build() -> (ParamStore, TgVae, CausalTadConfig, StdRng) {
        let cfg = CausalTadConfig::test_scale();
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let tg = TgVae::new(&mut store, 6, &cfg, &mut rng);
        (store, tg, cfg, rng)
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let mut tape = Tape::new();
        let segs = [0u32, 1, 2, 3, 4];
        let loss = tg.loss(&mut tape, &store, &segs, &succ, &cfg, &mut rng);
        let v = tape.value(loss.total).get(0, 0);
        assert!(v.is_finite() && v > 0.0, "loss {v}");
        assert_eq!(loss.steps, 4);
    }

    #[test]
    fn training_reduces_loss_on_repeated_trajectory() {
        let (mut store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let mut adam = tad_autodiff::optim::Adam::new(&store, 0.01);
        let mut grads = Gradients::new(&store);
        let segs = [0u32, 2, 4, 5];
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..60 {
            let mut tape = Tape::new();
            let loss = tg.loss(&mut tape, &store, &segs, &succ, &cfg, &mut rng);
            let v = tape.value(loss.total).get(0, 0) as f64;
            if it == 0 {
                first = v;
            }
            last = v;
            tape.backward(loss.total, &store, &mut grads);
            adam.step(&mut store, &mut grads);
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn trained_transition_beats_untrained_alternative() {
        let (mut store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let mut adam = tad_autodiff::optim::Adam::new(&store, 0.01);
        let mut grads = Gradients::new(&store);
        let trained = [0u32, 1, 2, 3, 4];
        for _ in 0..200 {
            let mut tape = Tape::new();
            let loss = tg.loss(&mut tape, &store, &trained, &succ, &cfg, &mut rng);
            tape.backward(loss.total, &store, &mut grads);
            adam.step(&mut store, &mut grads);
        }
        // After training on 0 -> 1 -> ..., the first decoder step must
        // prefer 1 over 2 among successors(0) = {1, 2}.
        let plan = tg.build_plan(&store, false);
        let mut scratch = StepScratch::default();
        let mut h = tg.start(&store, &plan, &mut scratch.buf, 0, 4).0.to_vec();
        advance(&tg, &plan, &mut scratch, &mut h, 0);
        let nll_trained = tg.step_nll(&store, &mut scratch.buf, &h, &succ[0], 1);
        let nll_alt = tg.step_nll(&store, &mut scratch.buf, &h, &succ[0], 2);
        assert!(nll_trained < nll_alt, "trained transition {nll_trained} vs alternative {nll_alt}");
    }

    #[test]
    fn fused_loss_matches_scalar_reference() {
        // Same rng stream, same trajectory: the fused/batched formulation
        // must reproduce the pre-vectorisation scalar loss within the
        // fast-math gate tolerance.
        let (store, tg, cfg, _) = build();
        let succ = toy_successors();
        let segs = [0u32, 1, 3, 4, 0, 2];
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut tape_a = Tape::new();
        let fused = tg.loss(&mut tape_a, &store, &segs, &succ, &cfg, &mut rng_a);
        let mut tape_b = Tape::new();
        let reference = tg.loss_reference(&mut tape_b, &store, &segs, &succ, &cfg, &mut rng_b);
        assert_eq!(fused.steps, reference.steps);
        let a = tape_a.value(fused.total).get(0, 0) as f64;
        let b = tape_b.value(reference.total).get(0, 0) as f64;
        let rel = (a - b).abs() / b.abs().max(1e-12);
        assert!(rel < 1e-5, "fused {a} vs reference {b} (rel {rel:e})");
    }

    #[test]
    fn batched_loss_matches_per_trajectory_sum() {
        // Ragged batch: the row-stacked loss must equal the sum of
        // single-trajectory losses given the same per-trajectory eps rows.
        let (store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let trajs: [&[u32]; 3] = [&[0, 1, 2, 3, 4, 5], &[2, 4, 5], &[5, 0, 1, 2]];
        let dl = cfg.latent_dim;
        let eps = Tensor::randn(3, dl, 0.0, 1.0, &mut rng);

        let mut tape_b = Tape::new();
        let batched = tg.loss_batch(&mut tape_b, &store, &trajs, eps.clone(), &succ, &cfg);
        let batched_v = tape_b.value(batched.total).get(0, 0) as f64;

        let mut sum = 0.0f64;
        let mut steps = 0usize;
        for (i, t) in trajs.iter().enumerate() {
            let row = Tensor::from_vec(1, dl, eps.row(i).to_vec());
            let mut tape = Tape::new();
            let single = tg.loss_batch(&mut tape, &store, &[t], row, &succ, &cfg);
            sum += tape.value(single.total).get(0, 0) as f64;
            steps += single.steps;
        }
        assert_eq!(batched.steps, steps);
        let rel = (batched_v - sum).abs() / sum.abs().max(1e-12);
        assert!(rel < 1e-5, "batched {batched_v} vs sum {sum} (rel {rel:e})");
    }

    #[test]
    fn batched_loss_gradients_match_sequential() {
        // Gradients of the summed batched loss vs accumulated
        // per-trajectory gradients (the property the batched trainer
        // relies on).
        let (store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let trajs: [&[u32]; 2] = [&[0, 2, 3, 5], &[1, 2, 4]];
        let eps = Tensor::randn(2, cfg.latent_dim, 0.0, 1.0, &mut rng);

        let mut grads_b = Gradients::new(&store);
        let mut tape_b = Tape::new();
        let batched = tg.loss_batch(&mut tape_b, &store, &trajs, eps.clone(), &succ, &cfg);
        tape_b.backward(batched.total, &store, &mut grads_b);

        let mut grads_s = Gradients::new(&store);
        for (i, t) in trajs.iter().enumerate() {
            let row = Tensor::from_vec(1, cfg.latent_dim, eps.row(i).to_vec());
            let mut tape = Tape::new();
            let single = tg.loss_batch(&mut tape, &store, &[t], row, &succ, &cfg);
            tape.backward(single.total, &store, &mut grads_s);
        }

        for id in store.ids() {
            for (a, b) in grads_b.get(id).data().iter().zip(grads_s.get(id).data()) {
                assert!((a - b).abs() < 1e-4, "grad {} diverged: {a} vs {b}", store.name(id));
            }
        }
    }

    #[test]
    fn recurrence_node_allocates_nothing_after_the_first_pass() {
        // The whole-recurrence node draws its per-pass state (packed U and
        // Uᵀ, gate aux, the dU stacks) from the tape's pool: once one
        // forward + backward pass has warmed it, further passes of the same
        // ragged batch must be served from the pool alone.
        let (store, tg, cfg, mut rng) = build();
        let mut grads = Gradients::new(&store);
        let succ = toy_successors();
        let trajs: [&[u32]; 5] =
            [&[0, 1, 2, 3, 4, 5], &[2, 4, 5], &[5, 0, 1, 2], &[1, 3], &[3, 4, 0, 1, 2, 4, 5]];
        let eps = Tensor::randn(trajs.len(), cfg.latent_dim, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut pass = |tape: &mut Tape| {
            tape.reset();
            let loss = tg.loss_batch(tape, &store, &trajs, eps.clone(), &succ, &cfg);
            tape.backward(loss.total, &store, &mut grads);
        };
        pass(&mut tape);
        let (_, warm_misses) = tape.pool_stats();
        pass(&mut tape);
        pass(&mut tape);
        let (hits, misses) = tape.pool_stats();
        assert_eq!(misses, warm_misses, "a steady-state pass allocated");
        assert!(hits > 0);
    }

    #[test]
    fn off_graph_transition_gets_penalty() {
        let (store, tg, _, _) = build();
        assert_eq!(tg.step_nll(&store, &mut Vec::new(), &[0.0; 20], &[1, 2], 5), OFF_GRAPH_NLL);
    }

    #[test]
    fn ablations_change_loss_structure() {
        let (store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let segs = [0u32, 1, 2, 3];

        let mut no_sd = cfg.clone();
        no_sd.disable_sd_decoder = true;
        let mut tape_a = Tape::new();
        let la = tg.loss(&mut tape_a, &store, &segs, &succ, &no_sd, &mut rng);

        let mut full_vocab = cfg.clone();
        full_vocab.disable_road_constraint = true;
        let mut tape_b = Tape::new();
        let lb = tg.loss(&mut tape_b, &store, &segs, &succ, &full_vocab, &mut rng);

        // Full-vocab CE has more classes, so its per-step loss is larger at
        // init (uniform over 6 instead of 2).
        assert!(tape_b.value(lb.total).get(0, 0) > tape_a.value(la.total).get(0, 0));
    }

    #[test]
    fn advance_batch_matches_sequential_advance() {
        let (store, tg, _, _) = build();
        let plan = tg.build_plan(&store, false);
        let mut scratch = StepScratch::default();
        let h0 = tg.start(&store, &plan, &mut scratch.buf, 0, 4).0.to_vec();
        let h1 = tg.start(&store, &plan, &mut scratch.buf, 2, 5).0.to_vec();
        let hidden = h0.len();
        let hs = [&h0[..], &h1[..]].concat();
        let segs = [3u32, 1];

        let mut gh = vec![0.0; 2 * 3 * hidden];
        let mut batched = Tensor::zeros(2, hidden);
        let out = batched.data_mut().chunks_exact_mut(hidden);
        tg.advance_batch(&plan, &hs, &segs, &mut gh, out);
        for (i, mut h) in [h0, h1].into_iter().enumerate() {
            advance(&tg, &plan, &mut scratch, &mut h, segs[i]);
            assert_eq!(batched.row(i), &h[..], "row {i}");
            // ... and both are the step the GRU cell takes from scratch:
            // input projection, `U` packed per call, no table.
            let x = store.value(tg.traj_embed.table()).gather_rows(&[segs[i]]);
            let gx = tg.gru.input_gates(&store, &x);
            let h_in = &hs[i * hidden..(i + 1) * hidden];
            let cell = tg.gru.infer_sequence(&store, &gx, h_in);
            assert_eq!(cell.row(0), &h[..], "row {i} vs cell");
        }
    }

    #[test]
    fn start_charges_the_sd_reconstruction_only_with_the_packed_heads() {
        // The packed full-vocabulary heads give the logits of the taped SD
        // decoder; without them a trip start charges the KL alone and
        // opens on the same hidden row.
        let (store, tg, _, _) = build();
        let mut buf = Vec::new();
        let (h_kl, kl) = tg.start(&store, &tg.build_plan(&store, false), &mut buf, 1, 4);
        let h_kl = h_kl.to_vec();
        let (h_sd, with_sd) = tg.start(&store, &tg.build_plan(&store, true), &mut buf, 1, 4);
        assert_eq!(h_kl, h_sd);

        let mut tape = Tape::new();
        let mu = {
            let s = tg.sd_embed.lookup(&mut tape, &store, &[1]);
            let d = tg.sd_embed.lookup(&mut tape, &store, &[4]);
            let sd = tape.concat_cols(s, d);
            let enc_pre = tg.enc.forward(&mut tape, &store, sd);
            let enc_h = tape.tanh(enc_pre);
            tg.head.forward(&mut tape, &store, enc_h).0
        };
        let sd_pre = tg.sd_dec_hidden.forward(&mut tape, &store, mu);
        let sd_h = tape.relu(sd_pre);
        let src_logits = tg.src_head.forward(&mut tape, &store, sd_h);
        let src_ce = tape.softmax_cross_entropy(src_logits, &[1]);
        let dst_logits = tg.dst_head.forward(&mut tape, &store, sd_h);
        let dst_ce = tape.softmax_cross_entropy(dst_logits, &[4]);
        let taped = (tape.value(src_ce).get(0, 0) + tape.value(dst_ce).get(0, 0)) as f64;
        assert!(kl >= 0.0 && with_sd > kl);
        assert!((with_sd - kl - taped).abs() < 1e-4, "{} vs taped {taped}", with_sd - kl);
    }

    #[test]
    fn nll_from_logits_matches_manual() {
        let logits = [1.0f32, 2.0, 0.5];
        let nll = nll_from_logits(&logits, 1);
        let manual = (logsumexp(&logits) - 2.0) as f64;
        assert!((nll - manual).abs() < 1e-9);
    }
}
