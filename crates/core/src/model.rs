//! The assembled CausalTAD model.
//!
//! Holds the shared [`ParamStore`], the two VAEs, the cached road-network
//! successor sets, and (after training) the precomputed
//! [`ScalingTable`]. Scoring follows Eq. (10) of the paper:
//!
//! ```text
//! score(t, c) = -log P(c, t) − λ Σ_i log E_{e_i ~ P(E_i|t_i)}[1 / P(t_i|e_i)]
//!             ≈ (KL + sd_nll + Σ step_nll) − λ Σ_i log_scale(t_i)
//! ```
//!
//! The offline [`CausalTad::score`] is a one-trip
//! [`CausalTad::score_pool`]: the same step the online scorer takes, so
//! the two paths cannot diverge (verified by integration tests).

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tad_autodiff::{LayoutError, ParamStore, Tape, Tensor, Var};
use tad_roadnet::RoadNetwork;
use tad_trajsim::Trajectory;

use crate::config::CausalTadConfig;
use crate::online::OnlineScorer;
use crate::rpvae::RpVae;
use crate::scaling::ScalingTable;
use crate::tgvae::{InferencePlan, TgVae};
use crate::train::{TrainReport, Trainer};

/// One batch with its noise drawn ([`CausalTad::draw_chunk`]): the
/// TG-VAE reads the first two fields, the RP-VAE the last two.
pub(crate) struct ChunkInputs {
    /// Segment ids per trajectory.
    pub(crate) tg_segments: Vec<Vec<u32>>,
    /// One standard-normal row per trajectory.
    pub(crate) tg_eps: Tensor,
    /// Every trajectory's tokens, concatenated in batch order.
    pub(crate) rp_tokens: Vec<u32>,
    /// One standard-normal row per token.
    pub(crate) rp_eps: Tensor,
}

/// The CausalTAD detector (paper §V).
#[derive(Clone, Debug)]
pub struct CausalTad {
    pub(crate) cfg: CausalTadConfig,
    /// `tg.*` parameters at ids `[0, tg_params)`, `rp.*` after them.
    /// Private to this module: every `&mut` path to the parameters is
    /// [`CausalTad::store_mut`], which drops `plan`.
    store: ParamStore,
    /// What tape-free scoring derives from `store` once: built by the
    /// first call that needs it, shared by clones (which hold the same
    /// parameters) and by every engine serving this model.
    plan: OnceLock<Arc<InferencePlan>>,
    /// Where the store divides: the two VAEs share no parameter, so
    /// [`Trainer::fit`] hands each its own shard.
    pub(crate) tg_params: usize,
    pub(crate) tg: TgVae,
    pub(crate) rp: RpVae,
    pub(crate) scaling: Option<ScalingTable>,
    /// Successor lists per segment, cached from the road network.
    pub(crate) successors: Vec<Vec<u32>>,
    vocab: usize,
}

impl CausalTad {
    /// Builds an untrained model for a road network.
    pub fn new(net: &RoadNetwork, cfg: CausalTadConfig) -> Self {
        Self::on_store(net, cfg, ParamStore::new()).expect("a fresh store takes any layout")
    }

    /// The model of `cfg` over `store`: a fresh store is filled from
    /// `cfg.seed`; one decoded from bytes (the model codec) is claimed as
    /// it stands, nothing drawn, or refused naming the parameter that is
    /// not what the two VAEs register at its place.
    pub(crate) fn on_store(
        net: &RoadNetwork,
        cfg: CausalTadConfig,
        mut store: ParamStore,
    ) -> Result<Self, LayoutError> {
        let vocab = net.num_segments();
        assert!(vocab > 0, "road network has no segments");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tg = TgVae::new(&mut store, vocab, &cfg, &mut rng);
        let tg_params = store.registered();
        let rp = RpVae::new(&mut store, vocab, &cfg, &mut rng);
        store.finish()?;
        let successors = net.segment_ids().map(|s| net.successor_ids(s)).collect();
        Ok(CausalTad {
            cfg,
            store,
            plan: OnceLock::new(),
            tg_params,
            tg,
            rp,
            scaling: None,
            successors,
            vocab,
        })
    }

    /// Model vocabulary (number of road segments).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &CausalTadConfig {
        &self.cfg
    }

    /// Shared parameter store (read access, e.g. for persistence).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store for custom optimisation loops (the
    /// reference trainers of the tests), and the one way to the parameters
    /// training takes too. It drops the
    /// inference plan, so the next score is stepped against the parameters
    /// as they then are. The scaling table is *not* recomputed: after
    /// changing `rp.*` parameters call [`CausalTad::precompute_scaling`]
    /// before scoring.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        self.plan = OnceLock::new();
        &mut self.store
    }

    /// The resident inference plan, built on first use. `&mut` access to
    /// the parameters drops it; nothing else does.
    pub(crate) fn plan(&self) -> &InferencePlan {
        self.plan.get_or_init(|| {
            Arc::new(self.tg.build_plan(&self.store, self.cfg.score_includes_sd_nll))
        })
    }

    /// Successor segments of `seg`.
    pub fn successors_of(&self, seg: u32) -> &[u32] {
        &self.successors[seg as usize]
    }

    /// Draws a batch's reparameterisation noise and lays out what
    /// each VAE reads of it. The noise is drawn per trajectory in batch
    /// order (TG then RP), so a batch of size 1 consumes the rng
    /// stream exactly like the scalar reference (`TgVae::loss_reference`
    /// then `RpVae::loss`, one trajectory per tape) and larger
    /// batches draw the same values for the same trajectories.
    pub(crate) fn draw_chunk(&self, batch: &[&Trajectory], rng: &mut StdRng) -> ChunkInputs {
        assert!(!batch.is_empty(), "draw_chunk: empty batch");
        let b = batch.len();
        let dl = self.cfg.latent_dim;
        let rp_dl = self.cfg.rp_latent_dim;
        let total_tokens: usize = batch.iter().map(|t| t.len()).sum();
        let mut tg_eps = Tensor::zeros(b, dl);
        let mut rp_eps = Tensor::zeros(total_tokens, rp_dl);
        let mut rp_tokens: Vec<u32> = Vec::with_capacity(total_tokens);
        let mut tg_segments: Vec<Vec<u32>> = Vec::with_capacity(b);
        let mut off = 0usize;
        for (i, t) in batch.iter().enumerate() {
            let e = Tensor::randn(1, dl, 0.0, 1.0, rng);
            tg_eps.row_mut(i).copy_from_slice(e.row(0));
            let re = Tensor::randn(t.len(), rp_dl, 0.0, 1.0, rng);
            rp_eps.data_mut()[off * rp_dl..(off + t.len()) * rp_dl].copy_from_slice(re.data());
            off += t.len();
            rp_tokens.extend(t.segments.iter().map(|s| self.rp.token(s.0, t.time_slot)));
            tg_segments.push(t.segments.iter().map(|s| s.0).collect());
        }
        ChunkInputs { tg_segments, tg_eps, rp_tokens, rp_eps }
    }

    /// `Σ_i L1` (§V-B) of a drawn batch on `tape`, reading the TG-VAE's
    /// parameters from `store` — the whole store or its `tg.*` shard. The
    /// TG-VAE runs with row-stacked hidden states ([`TgVae::loss_batch`]).
    pub(crate) fn tg_chunk_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        segments: &[Vec<u32>],
        eps: Tensor,
    ) -> Var {
        let slices: Vec<&[u32]> = segments.iter().map(Vec::as_slice).collect();
        self.tg.loss_batch(tape, store, &slices, eps, &self.successors, &self.cfg).total
    }

    /// Builds the summed joint training loss `Σ_i (L1 + L2)` (Eq. 9) for a
    /// batch of trajectories in one tape pass, returning the loss
    /// node: the reparameterisation noise is drawn per trajectory in batch
    /// order (TG then RP), then comes the TG-VAE half, then the RP-VAE half
    /// (which sees every trajectory's tokens as one batch), then their sum.
    ///
    /// This is the one-tape composition of the two halves
    /// [`Trainer::fit`] runs on two threads; the trainer's bit-identity
    /// test checks the lanes against it.
    pub fn trajectory_loss_batch(
        &self,
        tape: &mut Tape,
        batch: &[&Trajectory],
        rng: &mut StdRng,
    ) -> Var {
        let chunk = self.draw_chunk(batch, rng);
        let tg = self.tg_chunk_loss(tape, &self.store, &chunk.tg_segments, chunk.tg_eps);
        let rp = self.rp.loss_with_eps(tape, &self.store, &chunk.rp_tokens, chunk.rp_eps);
        tape.add(tg, rp)
    }

    /// Trains both VAEs jointly (Eq. 9) and precomputes the scaling table.
    pub fn fit(&mut self, train: &[Trajectory]) -> TrainReport {
        let report = Trainer::fit(self, train);
        self.precompute_scaling();
        report
    }

    /// (Re)computes the per-token scaling table (§V-D). Called by
    /// [`CausalTad::fit`]; exposed for tests and for refreshing after
    /// manual parameter updates.
    pub fn precompute_scaling(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5ca1ab1e);
        self.scaling = Some(ScalingTable::compute(
            &self.rp,
            &self.store,
            self.cfg.scaling_mc_samples,
            &mut rng,
        ));
    }

    /// The precomputed scaling table, if available.
    pub fn scaling(&self) -> Option<&ScalingTable> {
        self.scaling.as_ref()
    }

    /// Starts an online scorer for a trip with the given SD pair and
    /// departure slot. Each [`OnlineScorer::push`] costs O(1) in trajectory
    /// length.
    ///
    /// # Panics
    /// Panics if the scaling table has not been computed
    /// (call [`CausalTad::fit`] or [`CausalTad::precompute_scaling`] first).
    pub fn online(&self, source: u32, dest: u32, time_slot: u8) -> OnlineScorer<'_> {
        let state = self.start_state(source, dest, time_slot).unwrap_or_else(|e| panic!("{e}"));
        OnlineScorer::from_state(self, state)
    }

    /// Debiased anomaly score of a full trajectory (Eq. 10). Higher means
    /// more anomalous.
    pub fn score(&self, traj: &Trajectory) -> f64 {
        self.score_prefix(traj, traj.len())
    }

    /// Score after observing only the first `prefix_len` segments (online
    /// evaluation, §VI-E). The SD pair — known upfront in ride-hailing — is
    /// always available to the model. A one-trip
    /// [`CausalTad::score_pool`].
    pub fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        self.score_pool(std::slice::from_ref(traj), |_| prefix_len, |_, _| {})[0]
            .score(self.cfg.lambda)
    }

    /// Ablation score using only the TG-VAE likelihood (λ = 0): the
    /// "TG-VAE" row of Table III.
    pub fn score_tg_only(&self, traj: &Trajectory) -> f64 {
        self.score_pool(std::slice::from_ref(traj), Trajectory::len, |_, _| {})[0].likelihood_nll()
    }

    /// This model scoring with [`CausalTadConfig::score_includes_sd_nll`]
    /// set: the same parameters and scaling table under a plan that
    /// carries the SD heads. Training never reads the flag, so a fitted
    /// model gives what a fit with the flag set would.
    pub fn with_sd_nll_score(&self) -> CausalTad {
        let cfg = CausalTadConfig { score_includes_sd_nll: true, ..self.cfg.clone() };
        CausalTad { cfg, plan: OnceLock::new(), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::{generate_city, CityConfig};

    fn small_city() -> tad_trajsim::City {
        generate_city(&CityConfig::test_scale(100))
    }

    fn quick_model(city: &tad_trajsim::City) -> CausalTad {
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 3;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        model
    }

    #[test]
    fn fit_produces_finite_scores() {
        let city = small_city();
        let model = quick_model(&city);
        for t in city.data.test_id.iter().take(5) {
            let s = model.score(t);
            assert!(s.is_finite(), "score {s}");
        }
    }

    #[test]
    fn anomalies_score_higher_on_average() {
        let city = small_city();
        let model = quick_model(&city);
        let mean =
            |ts: &[Trajectory]| ts.iter().map(|t| model.score(t)).sum::<f64>() / ts.len() as f64;
        let normal = mean(&city.data.test_id);
        let detour = mean(&city.data.detour);
        assert!(
            detour > normal,
            "detour anomalies should score higher: {detour:.2} vs {normal:.2}"
        );
    }

    #[test]
    fn online_equals_offline() {
        let city = small_city();
        let model = quick_model(&city);
        for t in city.data.test_id.iter().take(5) {
            let offline = model.score(t);
            let sd = t.sd_pair();
            let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
            let mut last = f64::NAN;
            for &seg in &t.segments {
                last = scorer.push(seg.0);
            }
            assert_eq!(offline.to_bits(), last.to_bits(), "{offline} vs {last}");
        }
    }

    #[test]
    fn prefix_scores_are_monotone_in_information() {
        // Not strictly monotone in value, but must be finite and defined for
        // every prefix, and the full-prefix score must match score().
        let city = small_city();
        let model = quick_model(&city);
        let t = &city.data.test_id[0];
        for len in 1..=t.len() {
            assert!(model.score_prefix(t, len).is_finite());
        }
        assert_eq!(model.score_prefix(t, t.len()), model.score(t));
    }

    #[test]
    fn lambda_zero_equals_tg_only() {
        let city = small_city();
        let model = quick_model(&city);
        let t = &city.data.test_id[0];
        let sd = t.sd_pair();
        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments {
            scorer.push(seg.0);
        }
        let s = scorer.state().score(0.0);
        let tg = model.score_tg_only(t);
        assert_eq!(s.to_bits(), tg.to_bits(), "{s} vs {tg}");
    }

    #[test]
    fn a_write_through_store_mut_drops_the_inference_plan() {
        // The plan caches products of the parameters. Score (so it exists),
        // change one recurrent weight through `store_mut`, and the next
        // pushes must be those of a model decoded fresh from the changed
        // parameters — not of the plan built before the write.
        let city = small_city();
        let mut model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
        model.precompute_scaling();
        let trips: Vec<&Trajectory> = city.data.test_id.iter().take(5).collect();
        let states = |m: &CausalTad| -> Vec<crate::ScorerState> {
            let start = |t: &&Trajectory| {
                let sd = t.sd_pair();
                let mut st = m.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("on map");
                m.push_state(&mut st, t.segments[0].0);
                st
            };
            trips.iter().map(start).collect()
        };
        let segs: Vec<u32> = trips.iter().map(|t| t.segments[1].0).collect();
        let step = |m: &CausalTad| {
            let (mut singles, mut wave) = (states(m), states(m));
            let pushed: Vec<u64> = singles
                .iter_mut()
                .zip(&segs)
                .map(|(st, &seg)| m.push_state(st, seg).to_bits())
                .collect();
            let batched: Vec<u64> =
                m.push_batch(None, &mut wave, &segs).into_iter().map(f64::to_bits).collect();
            assert_eq!(singles, wave);
            let hidden: Vec<Vec<u32>> =
                wave.iter().map(|st| st.hidden().iter().map(|x| x.to_bits()).collect()).collect();
            (pushed, batched, hidden)
        };

        let before = step(&model);
        let u = model.store().ids().find(|&id| model.store().name(id) == "tg.gru.u");
        model.store_mut().value_mut(u.expect("the decoder GRU")).row_mut(0).fill(0.75);
        let after = step(&model);
        let fresh = crate::model_from_bytes(&city.net, crate::model_to_bytes(&model));
        assert_eq!(after, step(&fresh.expect("round trip")), "stepped against a stale plan");
        assert_ne!(after.2, before.2, "the weight written is one the step reads");
    }

    #[test]
    fn tied_embedding_shares_parameters() {
        let city = small_city();
        let mut tied_cfg = CausalTadConfig::test_scale();
        tied_cfg.tie_sd_embedding = true;
        let tied = CausalTad::new(&city.net, tied_cfg);
        let mut untied_cfg = CausalTadConfig::test_scale();
        untied_cfg.tie_sd_embedding = false;
        let untied = CausalTad::new(&city.net, untied_cfg);
        // The untied model has one extra embedding table's worth of params.
        let extra = city.net.num_segments() * untied.config().embed_dim;
        assert_eq!(untied.store().num_scalars(), tied.store().num_scalars() + extra);
    }

    #[test]
    fn sd_nll_flag_changes_score_for_unseen_pairs() {
        let city = small_city();
        let mut with_cfg = CausalTadConfig::test_scale();
        with_cfg.epochs = 2;
        with_cfg.score_includes_sd_nll = true;
        let mut without_cfg = with_cfg.clone();
        without_cfg.score_includes_sd_nll = false;
        let mut with_sd = CausalTad::new(&city.net, with_cfg);
        with_sd.fit(&city.data.train);
        let mut without_sd = CausalTad::new(&city.net, without_cfg);
        without_sd.fit(&city.data.train);
        // Same training (same seed/config except the score flag), so the
        // score difference is exactly the SD reconstruction NLL >= 0.
        let t = &city.data.test_ood[0];
        let diff = with_sd.score(t) - without_sd.score(t);
        assert!(diff > 0.0, "SD NLL must add a positive term, diff {diff}");
        // Training never reads the flag: setting it on the fitted model
        // scores what the fit with it set does, bit for bit.
        let flipped = without_sd.with_sd_nll_score();
        for t in city.data.test_id.iter().chain(&city.data.test_ood) {
            assert_eq!(flipped.score(t).to_bits(), with_sd.score(t).to_bits());
        }
    }
}
