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

use tad_autodiff::nn::{gaussian_kl, Embedding, GaussianHead, GruCell, Linear};
use tad_autodiff::{logsumexp, ParamStore, Tape, Tensor, Var};

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
    /// Registers all parameters in `store`.
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
            enc: Linear::new(store, "tg.enc", 2 * de, dh, rng),
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

    /// Scalars [`TgVae::new`] registers, layer by layer in its order (a
    /// linear layer is `in·out + out`, the GRU `3·hidden·(in + hidden + 1)`).
    pub(crate) fn num_scalars(vocab: usize, cfg: &CausalTadConfig) -> u128 {
        let [v, de, dh, dl] =
            [vocab, cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim].map(|d| d as u128);
        let linear = |i: u128, o: u128| i * o + o;
        let embeds = if cfg.tie_sd_embedding { 1 } else { 2 };
        embeds * v * de
            + linear(2 * de, dh)
            + 2 * linear(dh, dl)
            + 2 * linear(dl, dh)
            + 3 * linear(dh, v)
            + 3 * dh * (de + dh + 1)
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

    /// Builds the summed training loss `Σ_i L1(c_i, t_i)` for a micro-batch
    /// of trajectories in **one** tape pass.
    ///
    /// Hidden states are row-stacked (`batch x hidden`, mirroring the
    /// inference-side `advance_batch`), shrinking as shorter trajectories
    /// run out of transitions, so the GRU recurrence runs one
    /// matrix-matrix product per step instead of `batch` matrix-vector
    /// products. The ragged schedule is planned up front, the input-gate
    /// projection of every (step, trajectory) pair is one GEMM, and the
    /// whole recurrence is **one** tape node
    /// ([`tad_autodiff::nn::BoundGru::sequence`]:
    /// the recurrent weight is packed once per pass, its gradient is one
    /// GEMM) that returns every step's hidden rows stacked time-major.
    /// The prediction heads batch over that stack: the full-vocab
    /// ablation runs a single `(N x d)·(d x vocab)` GEMM + fused CE over
    /// every transition of every trajectory, and the road-constrained path
    /// groups transitions sharing a successor set into one subset GEMM + CE
    /// per group (first-occurrence order, so the reduction is
    /// deterministic).
    ///
    /// `eps` holds one pre-drawn standard-normal row per trajectory (the
    /// caller controls the rng stream so batched and sequential training
    /// consume identical randomness). The summed loss matches the sum of
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
            let src_logits = self.src_head.forward_rowmajor(tape, store, sd_h);
            let src_ce = tape.softmax_cross_entropy(src_logits, &s_ids);
            let dst_logits = self.dst_head.forward_rowmajor(tape, store, sd_h);
            let dst_ce = tape.softmax_cross_entropy(dst_logits, &d_ids);
            let sd_ce = tape.add(src_ce, dst_ce);
            total = tape.add(total, sd_ce);
        }

        // --- Trajectory decoder: batched ragged recurrence --------------
        let init_pre = self.dec_init.forward(tape, store, r);
        let h = tape.tanh(init_pre);
        let bound = self.gru.bind(tape, store);
        let max_transitions = trajs.iter().map(|t| t.len() - 1).max().expect("non-empty batch");

        // Plan the ragged schedule up front: per step, the trajectories
        // still running. Knowing every (step, trajectory) pair in advance
        // lets the GRU input-gate projection for the WHOLE batch run as a
        // single time-major GEMM outside the recurrence (the training-side
        // `StepCache`), the recurrence itself be one tape node, and the
        // prediction rows line up with both.
        let mut schedule: Vec<Vec<u32>> = Vec::with_capacity(max_transitions);
        {
            let mut active: Vec<u32> = (0..b as u32).collect();
            for t in 0..max_transitions {
                active.retain(|&i| trajs[i as usize].len() >= t + 2);
                if active.is_empty() {
                    break;
                }
                schedule.push(active.clone());
            }
        }
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
            let logits = self.out_proj.forward_rowmajor(tape, store, rows_h);
            let ce = tape.softmax_cross_entropy(logits, &targets);
            total = tape.add(total, ce);
            steps = targets.len();
        } else {
            // Road-constrained: every valid transition of the whole
            // micro-batch is scored by ONE fused subset-CE node — per-row
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

    /// The pre-vectorisation scalar reference: one trajectory, one tape op
    /// per primitive (unfused GRU steps, one subset projection + CE per
    /// transition). Kept verbatim so equivalence tests and the training
    /// bench can compare the micro-batched path against the original
    /// formulation — both consume the rng stream identically.
    pub fn loss_reference<R: Rng + ?Sized>(
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
            let src_logits = self.src_head.forward_rowmajor(tape, store, sd_h);
            let src_ce = tape.softmax_cross_entropy(src_logits, &[s]);
            let dst_logits = self.dst_head.forward_rowmajor(tape, store, sd_h);
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
                let logits = self.out_proj.forward_rowmajor(tape, store, h);
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

    // ----- inference (tape-free) ----------------------------------------

    /// Encodes the SD pair to the posterior mean `r = mu` and returns the
    /// closed-form KL of `Q1(R | c)` against the standard normal.
    pub fn encode_mean(&self, store: &ParamStore, s: u32, d: u32) -> (Tensor, f64) {
        let s_emb = self.sd_embed.embed(store, &[s]);
        let d_emb = self.sd_embed.embed(store, &[d]);
        let mut sd = Tensor::zeros(1, s_emb.cols() * 2);
        sd.row_mut(0)[..s_emb.cols()].copy_from_slice(s_emb.row(0));
        sd.row_mut(0)[s_emb.cols()..].copy_from_slice(d_emb.row(0));
        let enc_h = self.enc.infer(store, &sd).map(f32::tanh);
        let (mu, logvar) = self.head.infer(store, &enc_h);
        let kl = gaussian_kl(&mu, &logvar);
        (mu, kl)
    }

    /// `-log P(c | r)`: negative log-likelihood of the SD pair under the SD
    /// decoder.
    pub fn sd_nll(&self, store: &ParamStore, r: &Tensor, s: u32, d: u32) -> f64 {
        let sd_h = self.sd_dec_hidden.infer(store, r).map(|x| x.max(0.0));
        let src_logits = self.src_head.infer_rowmajor(store, &sd_h);
        let dst_logits = self.dst_head.infer_rowmajor(store, &sd_h);
        nll_from_logits(src_logits.row(0), s as usize)
            + nll_from_logits(dst_logits.row(0), d as usize)
    }

    /// Initial decoder hidden state `h_0 = tanh(W r)`.
    pub fn init_hidden(&self, store: &ParamStore, r: &Tensor) -> Tensor {
        self.dec_init.infer(store, r).map(f32::tanh)
    }

    /// `-log P(t_next | h, successors(prev))` under the road-constrained
    /// projection; [`OFF_GRAPH_NLL`] when `next` is not a successor of
    /// `prev`.
    pub fn step_nll(&self, store: &ParamStore, h: &Tensor, cands: &[u32], next: u32) -> f64 {
        let Some(pos) = cands.iter().position(|&c| c == next) else {
            return OFF_GRAPH_NLL;
        };
        let logits = self.out_proj.infer_subset(store, h, cands);
        nll_from_logits(logits.row(0), pos)
    }

    /// Advances the decoder hidden state with segment `seg`.
    pub fn advance(&self, store: &ParamStore, h: &Tensor, seg: u32) -> Tensor {
        let x = self.traj_embed.embed(store, &[seg]);
        self.gru.infer_step(store, &x, h)
    }

    /// Raw next-segment logits over a candidate set (used by trajectory
    /// generation).
    pub fn candidate_logits(&self, store: &ParamStore, h: &Tensor, cands: &[u32]) -> Vec<f32> {
        self.out_proj.infer_subset(store, h, cands).row(0).to_vec()
    }

    // ----- batched inference (fleet scoring) -----------------------------

    /// Precomputes `E · W + b` for every vocabulary token: the decoder
    /// GRU's input-gate activations depend only on the consumed segment, so
    /// a serving layer can pay for them once instead of per push.
    pub fn build_step_cache(&self, store: &ParamStore) -> StepCache {
        let table = store.value(self.traj_embed.table());
        let mut gx = table.matmul(store.value(self.gru.input_weight()));
        let bias = store.value(self.gru.gate_bias());
        for r in 0..gx.rows() {
            for (o, &b) in gx.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += b;
            }
        }
        StepCache { gx }
    }

    /// Rows per tile of a scoring wave (see
    /// [`GruCell::infer_tile_rows`]): [`TgVae::advance_batch`] and
    /// [`TgVae::step_nll_batch`] are meant to be walked over a wide batch
    /// in tiles of this height, so the working set is one tile whatever
    /// the batch width.
    pub fn wave_tile_rows(&self) -> usize {
        self.gru.infer_tile_rows()
    }

    /// Advances a tile of decoder states at once: row `i` of `hs` (the
    /// tile's stacked hidden rows) consumes `segs[i]`, and its new hidden
    /// row is written to the `i`-th slice `out` yields — typically the
    /// session's own hidden row, which `hs` was stacked from. `gh` is
    /// `hs.rows() x 3·hidden` scratch. One `tile x hidden` GRU step
    /// instead of `tile` matrix-vector steps; with a [`StepCache`] the
    /// input-gate matmul is a row lookup. Row `i` of the result is
    /// bit-identical to [`TgVae::advance`] on row `i` alone.
    pub fn advance_batch<'o>(
        &self,
        store: &ParamStore,
        cache: Option<&StepCache>,
        hs: &Tensor,
        segs: &[u32],
        gh: &mut Tensor,
        out: impl IntoIterator<Item = &'o mut [f32]>,
    ) {
        debug_assert_eq!(hs.rows(), segs.len(), "advance_batch: batch size");
        match cache {
            // Rows are read straight from the cache table — no gather copy.
            Some(c) => self.gru.infer_step_rows(store, |r| c.gx.row(segs[r] as usize), hs, gh, out),
            None => {
                let gx = self.gru.input_gates(store, &self.traj_embed.embed(store, segs));
                self.gru.infer_step_rows(store, |r| gx.row(r), hs, gh, out)
            }
        }
    }

    /// Batched road-constrained next-segment NLLs over a tile: row `i` of
    /// `hs` is scored against candidate set `cands[i]` with observed
    /// segment `next[i]`, into `out[i]`. A row without a candidate set
    /// (`None`: a session before its first segment, whose opening segment
    /// is fixed by the SD condition) is charged `0.0`; off-graph
    /// transitions get [`OFF_GRAPH_NLL`]. Rows sharing a candidate set are
    /// projected with a single `group x candidates` matrix-matrix product.
    /// Results match [`TgVae::step_nll`] per row, bit for bit.
    pub fn step_nll_batch(
        &self,
        store: &ParamStore,
        hs: &Tensor,
        cands: &[Option<&[u32]>],
        next: &[u32],
        out: &mut [f64],
    ) {
        assert_eq!(hs.rows(), cands.len(), "step_nll_batch: hs vs cands");
        assert_eq!(cands.len(), next.len(), "step_nll_batch: cands vs next");
        assert_eq!(cands.len(), out.len(), "step_nll_batch: cands vs out");
        for (o, cset) in out.iter_mut().zip(cands) {
            *o = if cset.is_some() { OFF_GRAPH_NLL } else { 0.0 };
        }
        // Group rows sharing a successor set. The successor lists are
        // cached per segment, so identical sets share one slice — sorting
        // row indices by slice identity groups them without a hash map.
        let set_of = |i: u32| cands[i as usize].expect("ordered rows have a candidate set");
        let mut order: Vec<u32> = (0..next.len() as u32)
            .filter(|&i| cands[i as usize].is_some_and(|cset| cset.contains(&next[i as usize])))
            .collect();
        order.sort_unstable_by_key(|&i| set_of(i).as_ptr() as usize);
        let same_set =
            |a: &[u32], b: &[u32]| std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len();

        let w = store.value(self.out_proj.weight());
        let bias = store.value(self.out_proj.bias());
        let mut logit_buf: Vec<f32> = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let cset = set_of(order[start]);
            let mut end = start + 1;
            while end < order.len() && same_set(set_of(order[end]), cset) {
                end += 1;
            }
            let rows = &order[start..end];
            start = end;
            if let [i] = rows[..] {
                // Singleton group: dot each candidate row directly (same
                // k-ascending accumulation as the matrix path), no gathers.
                let h_row = hs.row(i as usize);
                logit_buf.clear();
                logit_buf.extend(cset.iter().map(|&c| {
                    let w_row = w.row(c as usize);
                    let mut acc = 0.0f32;
                    for (&a, &b) in h_row.iter().zip(w_row) {
                        acc = a.mul_add(b, acc);
                    }
                    acc + bias.get(0, c as usize)
                }));
                let pos = cset
                    .iter()
                    .position(|&c| c == next[i as usize])
                    .expect("grouped rows contain their target");
                out[i as usize] = nll_from_logits(&logit_buf, pos);
                continue;
            }
            let w_rows = w.gather_rows(cset);
            let sub = hs.gather_rows(rows);
            let mut logits = sub.matmul_t(&w_rows);
            for (g, &i) in rows.iter().enumerate() {
                for (o, &c) in logits.row_mut(g).iter_mut().zip(cset.iter()) {
                    *o += bias.get(0, c as usize);
                }
                let pos = cset
                    .iter()
                    .position(|&c| c == next[i as usize])
                    .expect("grouped rows contain their target");
                out[i as usize] = nll_from_logits(logits.row(g), pos);
            }
        }
    }
}

/// Precomputed per-token GRU input-gate projections (`vocab x 3h`), built by
/// [`TgVae::build_step_cache`]. Valid until the model parameters change.
#[derive(Clone, Debug)]
pub struct StepCache {
    /// `E · W + b` for every token.
    gx: Tensor,
}

impl StepCache {
    /// Approximate heap footprint, for capacity planning in serving layers.
    pub fn bytes(&self) -> usize {
        self.gx.len() * std::mem::size_of::<f32>()
    }
}

/// `-log softmax(logits)[target]` in f64.
pub(crate) fn nll_from_logits(logits: &[f32], target: usize) -> f64 {
    (logsumexp(logits) - logits[target]) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_successors() -> Vec<Vec<u32>> {
        // 6-segment toy graph: i -> {(i+1) % 6, (i+2) % 6}
        (0..6u32).map(|i| vec![(i + 1) % 6, (i + 2) % 6]).collect()
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
            tape.backward(loss.total, &mut store);
            adam.step(&mut store);
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn trained_transition_beats_untrained_alternative() {
        let (mut store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let mut adam = tad_autodiff::optim::Adam::new(&store, 0.01);
        let trained = [0u32, 1, 2, 3, 4];
        for _ in 0..200 {
            let mut tape = Tape::new();
            let loss = tg.loss(&mut tape, &store, &trained, &succ, &cfg, &mut rng);
            tape.backward(loss.total, &mut store);
            adam.step(&mut store);
        }
        // After training on 0 -> 1 -> ..., the first decoder step must
        // prefer 1 over 2 among successors(0) = {1, 2}.
        let (r, _) = tg.encode_mean(&store, 0, 4);
        let mut h = tg.init_hidden(&store, &r);
        h = tg.advance(&store, &h, 0);
        let nll_trained = tg.step_nll(&store, &h, &succ[0], 1);
        let nll_alt = tg.step_nll(&store, &h, &succ[0], 2);
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
        // per-trajectory gradients (the property the micro-batched trainer
        // relies on).
        let (store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let trajs: [&[u32]; 2] = [&[0, 2, 3, 5], &[1, 2, 4]];
        let eps = Tensor::randn(2, cfg.latent_dim, 0.0, 1.0, &mut rng);

        let mut store_b = store.clone();
        let mut tape_b = Tape::new();
        let batched =
            tg.loss_batch(&mut tape_b, &store_b.clone(), &trajs, eps.clone(), &succ, &cfg);
        tape_b.backward(batched.total, &mut store_b);

        let mut store_s = store.clone();
        for (i, t) in trajs.iter().enumerate() {
            let row = Tensor::from_vec(1, cfg.latent_dim, eps.row(i).to_vec());
            let mut tape = Tape::new();
            let single = tg.loss_batch(&mut tape, &store_s.clone(), &[t], row, &succ, &cfg);
            tape.backward(single.total, &mut store_s);
        }

        for id in store.ids() {
            for (a, b) in store_b.grad(id).data().iter().zip(store_s.grad(id).data()) {
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
        let (mut store, tg, cfg, mut rng) = build();
        let succ = toy_successors();
        let trajs: [&[u32]; 5] =
            [&[0, 1, 2, 3, 4, 5], &[2, 4, 5], &[5, 0, 1, 2], &[1, 3], &[3, 4, 0, 1, 2, 4, 5]];
        let eps = Tensor::randn(trajs.len(), cfg.latent_dim, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut pass = |tape: &mut Tape| {
            tape.reset();
            let loss = tg.loss_batch(tape, &store.clone(), &trajs, eps.clone(), &succ, &cfg);
            tape.backward(loss.total, &mut store);
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
        let h = Tensor::zeros(1, 20);
        assert_eq!(tg.step_nll(&store, &h, &[1, 2], 5), OFF_GRAPH_NLL);
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
        let cache = tg.build_step_cache(&store);
        let (r0, _) = tg.encode_mean(&store, 0, 4);
        let (r1, _) = tg.encode_mean(&store, 2, 5);
        let h0 = tg.init_hidden(&store, &r0);
        let h1 = tg.init_hidden(&store, &r1);
        let hidden = h0.cols();
        let mut hs = Tensor::zeros(2, hidden);
        hs.row_mut(0).copy_from_slice(h0.row(0));
        hs.row_mut(1).copy_from_slice(h1.row(0));
        let segs = [3u32, 1];

        for cache_opt in [None, Some(&cache)] {
            let mut gh = Tensor::zeros(2, 3 * hidden);
            let mut batched = Tensor::zeros(2, hidden);
            let out = batched.data_mut().chunks_exact_mut(hidden);
            tg.advance_batch(&store, cache_opt, &hs, &segs, &mut gh, out);
            let a = tg.advance(&store, &h0, segs[0]);
            let b = tg.advance(&store, &h1, segs[1]);
            assert_eq!(batched.row(0), a.row(0), "row 0, cache={}", cache_opt.is_some());
            assert_eq!(batched.row(1), b.row(0), "row 1, cache={}", cache_opt.is_some());
        }
    }

    #[test]
    fn step_nll_batch_matches_sequential_and_flags_off_graph() {
        let (store, tg, _, _) = build();
        let succ = toy_successors();
        let (r, _) = tg.encode_mean(&store, 0, 4);
        let h0 = tg.init_hidden(&store, &r);
        let h1 = tg.advance(&store, &h0, 0);
        let hidden = h0.cols();
        let mut hs = Tensor::zeros(4, hidden);
        hs.row_mut(0).copy_from_slice(h0.row(0));
        hs.row_mut(1).copy_from_slice(h1.row(0));
        hs.row_mut(2).copy_from_slice(h1.row(0));
        hs.row_mut(3).copy_from_slice(h0.row(0));
        // Rows 0 and 1 share successors(0); row 2 asks for an off-graph
        // hop; row 3 has no predecessor yet.
        let cands = [Some(&succ[0][..]), Some(&succ[0][..]), Some(&succ[3][..]), None];
        let next = [1u32, 2, 0, 4];
        let mut batched = [f64::NAN; 4];
        tg.step_nll_batch(&store, &hs, &cands, &next, &mut batched);
        assert_eq!(batched[0], tg.step_nll(&store, &h0, &succ[0], 1));
        assert_eq!(batched[1], tg.step_nll(&store, &h1, &succ[0], 2));
        assert_eq!(batched[2], OFF_GRAPH_NLL);
        assert_eq!(batched[3], 0.0);
    }

    #[test]
    fn nll_from_logits_matches_manual() {
        let logits = [1.0f32, 2.0, 0.5];
        let nll = nll_from_logits(&logits, 1);
        let manual = (logsumexp(&logits) - 2.0) as f64;
        assert!((nll - manual).abs() < 1e-9);
    }
}
