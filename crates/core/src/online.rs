//! Online anomaly scoring with O(1) updates per road segment (§V-D).
//!
//! When the trip starts, the SD pair is known (it is the ride-hailing
//! order), so the scorer runs the SD encoder/decoder and the KL term once.
//! Each arriving segment then costs one GRU step, one successor-set
//! projection, and one scaling-table lookup — independent of how much of
//! the trajectory has been seen, which is the paper's O(1) efficiency
//! requirement.
//!
//! Two ways to drive it:
//!
//! * [`OnlineScorer`] — the borrowing, one-trip-at-a-time API.
//! * [`ScorerState`] — the owned, snapshotable state behind it. A serving
//!   layer (see the `tad-serve` crate) keeps thousands of these alive and
//!   advances whole cohorts at once through [`CausalTad::push_batch`],
//!   turning the per-segment GRU step into matrix-matrix products.
//!
//! Offline, a pool of recorded trips is scored the serving way:
//! [`CausalTad::score_pool`] advances every trip still in its prefix by
//! one wave per position, and every offline score (the tables, the
//! figures, [`CausalTad::score`]) is read off its final states.
//!
//! All are one step: [`CausalTad::push_state`] is a
//! [`CausalTad::push_batch`] wave of one row. Each steps against the
//! model's resident inference plan (the per-token gate table and the
//! packed recurrent weight, derived once per model) through a per-thread
//! scratch, so a pushed segment allocates nothing: a state keeps its
//! hidden row, its score accumulators and a segment count, never a
//! per-segment history. [`OnlineScorer`] alone records one (Fig. 4's
//! data), beside its state.
//!
//! A state stores its hidden row in bf16 (two bytes a value, f32's top
//! half, rounded to nearest even): the step widens it into the f32 tile
//! and rounds the new row back, and everything between — the kernels,
//! the plan, the score — is f32 and f64. The score is an f64 sum of
//! per-step terms; the row only carries the recurrence from one term to
//! the next.

use std::cell::RefCell;

use tad_trajsim::Trajectory;

use crate::bf16;
use crate::model::CausalTad;
use crate::tgvae::{StepCache, StepScratch};

std::thread_local! {
    /// The scoring thread's step buffers: one row tile at most.
    static SCRATCH: RefCell<StepScratch> = RefCell::new(StepScratch::default());
}

/// Per-segment contribution to the anomaly score (Fig. 4's data).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentTrace {
    /// The road segment.
    pub segment: u32,
    /// `-log P(t_i | c, t_<i)` — the likelihood part.
    pub nll: f64,
    /// `log E[1/P(t_i|e_i)]` — the debiasing part (before λ).
    pub log_scale: f64,
}

impl SegmentTrace {
    /// Combined debiased contribution `nll - λ * log_scale` (Eq. 11).
    pub fn debiased(&self, lambda: f64) -> f64 {
        self.nll - lambda * self.log_scale
    }
}

/// Why a scoring session could not be started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// The scaling table has not been computed yet (`fit()` /
    /// `precompute_scaling()` not called).
    MissingScalingTable,
    /// An SD endpoint is not a segment of the model's road network.
    SegmentOutOfRange {
        /// The offending segment id.
        segment: u32,
        /// The model vocabulary (number of road segments).
        vocab: usize,
    },
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::MissingScalingTable => {
                write!(f, "scaling table not computed; call fit() or precompute_scaling() first")
            }
            OnlineError::SegmentOutOfRange { segment, vocab } => {
                write!(f, "segment {segment} out of range for vocabulary of {vocab} segments")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Owned streaming state of one ongoing trajectory, detached from the
/// model borrow so a serving layer can store it, snapshot it, and advance
/// many of them in one batch. Persist it with
/// [`crate::state_to_bytes`] / [`crate::state_from_bytes`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScorerState {
    /// Decoder hidden row (`hidden` values, bf16 bits) after consuming
    /// all pushed segments.
    pub(crate) h: Box<[u16]>,
    /// Fixed at trip start: the KL term, plus `-log P(c|r)` when
    /// `score_includes_sd_nll` is enabled.
    pub(crate) base_nll: f64,
    /// Accumulated `-log P(t_i | ...)`.
    pub(crate) traj_nll: f64,
    /// Accumulated `log E[1/P(t_i|e_i)]`.
    pub(crate) scale_log_sum: f64,
    /// Previously pushed segment (None before the first push).
    pub(crate) last: Option<u32>,
    pub(crate) time_slot: u8,
    /// Segments consumed so far (saturating: a restored count of
    /// `u32::MAX` stays there instead of wrapping).
    pub(crate) segments: u32,
}

impl Default for ScorerState {
    /// An inert placeholder (useful for `mem::take`-style slot swapping in
    /// serving code); not a valid session until replaced.
    fn default() -> Self {
        ScorerState {
            h: Box::default(),
            base_nll: 0.0,
            traj_nll: 0.0,
            scale_log_sum: 0.0,
            last: None,
            time_slot: 0,
            segments: 0,
        }
    }
}

impl AsMut<ScorerState> for ScorerState {
    fn as_mut(&mut self) -> &mut ScorerState {
        self
    }
}

impl ScorerState {
    /// Reassembles a state from its raw components (the inverse of the
    /// field-by-field view a persistence layer serialises). The hidden
    /// vector, rounded to bf16, becomes the state's hidden row. A state
    /// built from parts is only meaningful for the model whose
    /// `start_state`/push calls produced those components — nothing is
    /// validated here.
    pub fn from_parts(
        hidden: Vec<f32>,
        base_nll: f64,
        traj_nll: f64,
        scale_log_sum: f64,
        last: Option<u32>,
        time_slot: u8,
        segments: u32,
    ) -> ScorerState {
        let h = hidden.iter().map(|&x| bf16::round(x)).collect();
        ScorerState { h, base_nll, traj_nll, scale_log_sum, last, time_slot, segments }
    }

    /// Width of the decoder hidden state (0 for the inert
    /// [`ScorerState::default`] placeholder). A serving layer uses this to
    /// check a restored state against its model's `hidden_dim` before
    /// resuming.
    pub fn hidden_width(&self) -> usize {
        self.h.len()
    }

    /// The decoder hidden vector (`hidden_width()` floats): the stored
    /// bf16 row, read widened.
    pub fn hidden(&self) -> HiddenRow<'_> {
        HiddenRow(&self.h)
    }

    /// Fixed-at-start part of the likelihood NLL (KL term, plus the SD NLL
    /// when enabled).
    pub fn base_nll(&self) -> f64 {
        self.base_nll
    }

    /// Current debiased anomaly score (Eq. 10) under the given λ. Higher =
    /// more anomalous.
    pub fn score(&self, lambda: f64) -> f64 {
        self.likelihood_nll() - lambda * self.scale_log_sum
    }

    /// The un-debiased likelihood part `-ELBO ≈ -log P(c, t)`.
    pub fn likelihood_nll(&self) -> f64 {
        self.base_nll + self.traj_nll
    }

    /// Accumulated scaling sum `Σ_i log E[1/P(t_i|e_i)]`.
    pub fn scale_log_sum(&self) -> f64 {
        self.scale_log_sum
    }

    /// Segment most recently pushed (None before the first push).
    pub fn last_segment(&self) -> Option<u32> {
        self.last
    }

    /// Number of segments consumed so far.
    pub fn len(&self) -> usize {
        self.segments as usize
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.segments == 0
    }

    /// Forgets the Markov predecessor so the next pushed segment is charged
    /// like a trip-opening one (`nll = 0`, no successor constraint) instead
    /// of an off-graph transition. The decoder hidden state and every
    /// accumulated score component are kept: the trip continues as a fresh
    /// leg anchored at the jump target, conditioned on everything already
    /// seen. This is the scoring primitive behind a serving layer's
    /// "trip reset" gap policy for off-network jumps (GPS teleports, tunnel
    /// exits, dropped sub-paths).
    pub fn reset_context(&mut self) {
        self.last = None;
    }
}

/// A [`ScorerState`]'s hidden row read as f32s: each stored bf16 value
/// widened exactly ([`ScorerState::hidden`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HiddenRow<'s>(&'s [u16]);

/// The widening [`HiddenRow`] iterates with.
type Widened<'s> = std::iter::Map<std::slice::Iter<'s, u16>, fn(&u16) -> f32>;

impl<'s> HiddenRow<'s> {
    /// The row's values, in order.
    pub fn iter(&self) -> Widened<'s> {
        self.0.iter().map(|&b| bf16::widen(b))
    }
}

impl<'s> IntoIterator for HiddenRow<'s> {
    type Item = f32;
    type IntoIter = Widened<'s>;

    fn into_iter(self) -> Widened<'s> {
        self.iter()
    }
}

impl std::fmt::Debug for HiddenRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl CausalTad {
    /// Creates the owned streaming state for a trip, validating the request
    /// instead of panicking — the entry point for serving layers.
    ///
    /// # Errors
    /// [`OnlineError::MissingScalingTable`] when `fit()` /
    /// `precompute_scaling()` has not run yet;
    /// [`OnlineError::SegmentOutOfRange`] when either SD endpoint is not a
    /// segment of the model's road network.
    pub fn start_state(
        &self,
        source: u32,
        dest: u32,
        time_slot: u8,
    ) -> Result<ScorerState, OnlineError> {
        if self.scaling().is_none() {
            return Err(OnlineError::MissingScalingTable);
        }
        let vocab = self.vocab();
        for seg in [source, dest] {
            if seg as usize >= vocab {
                return Err(OnlineError::SegmentOutOfRange { segment: seg, vocab });
            }
        }
        let (h, base_nll) = SCRATCH.with_borrow_mut(|scratch| {
            let (h, nll) = self.tg.start(self.store(), self.plan(), &mut scratch.buf, source, dest);
            (h.iter().map(|&x| bf16::round(x)).collect(), nll)
        });
        Ok(ScorerState {
            h,
            base_nll,
            traj_nll: 0.0,
            scale_log_sum: 0.0,
            last: None,
            time_slot,
            segments: 0,
        })
    }

    /// Consumes the next observed segment of `state`, returning the updated
    /// debiased score. O(1) in the number of segments seen so far, and the
    /// one-row case of [`CausalTad::push_batch`]: the same step, in place
    /// on the state's hidden row.
    ///
    /// # Panics
    /// Panics if `seg` is outside the model vocabulary or the state was not
    /// produced by [`CausalTad::start_state`] on this model.
    pub fn push_state(&self, state: &mut ScorerState, seg: u32) -> f64 {
        let mut score = f64::NAN;
        self.step_wave(std::slice::from_mut(state), &[seg], |s, _| score = s);
        score
    }

    /// Advances many live sessions by one segment each in a single
    /// micro-batch: session `i` consumes `segs[i]`. The GRU step runs as
    /// `tile x hidden` matrix products against the model's resident
    /// inference plan — the input-gate projection is a row of its table,
    /// the recurrent weight is packed once per model, not per tile.
    /// Returns the updated debiased score per session, identical bit for
    /// bit to calling [`CausalTad::push_state`] per session in isolation.
    ///
    /// The wave is walked in row tiles of [`crate::TgVae::wave_tile_rows`]
    /// sessions: each tile's hidden rows are widened from bf16 and
    /// stacked, scored, stepped, and rounded back into their sessions
    /// while they are cache-hot, through the calling thread's tile-sized
    /// scratch. Beyond the returned scores nothing is `states.len()`
    /// wide, so a wave's memory and its time per session do not depend
    /// on how many sessions it carries.
    ///
    /// `cache` is a handle onto the plan the wave would use anyway
    /// ([`CausalTad::build_step_cache`]): `None` means the model's plan.
    ///
    /// `states` may hold the states inline (`&mut [ScorerState]`) or by
    /// mutable reference (`&mut [&mut ScorerState]`), so callers can batch
    /// sessions scattered across a store without moving them.
    ///
    /// # Panics
    /// Panics if `states` and `segs` differ in length, or any segment is
    /// outside the model vocabulary.
    pub fn push_batch<S: AsMut<ScorerState>>(
        &self,
        cache: Option<&StepCache>,
        states: &mut [S],
        segs: &[u32],
    ) -> Vec<f64> {
        debug_assert!(
            cache.is_none_or(|c| std::ptr::eq(c.plan, self.plan())),
            "push_batch: the step cache is a handle onto another model's plan"
        );
        let mut scores = Vec::with_capacity(states.len());
        self.step_wave(states, segs, |s, _| scores.push(s));
        scores
    }

    /// The step behind every push: walks `states` in row tiles, charging
    /// row `i` for observing `segs[i]` and advancing its hidden row, and
    /// hands each row's updated score and what the segment contributed to
    /// it to `emit`, in order. A state keeps no per-segment history, so
    /// the step's [`SegmentTrace`] exists only here: a caller that reports
    /// or records it (a serving layer's score updates, [`OnlineScorer`]'s
    /// trace) takes it from `emit`. [`CausalTad::push_state`] and
    /// [`CausalTad::push_batch`] are this step keeping the scores only.
    ///
    /// # Panics
    /// As [`CausalTad::push_batch`].
    pub fn step_wave<S: AsMut<ScorerState>>(
        &self,
        states: &mut [S],
        segs: &[u32],
        mut emit: impl FnMut(f64, SegmentTrace),
    ) {
        assert_eq!(states.len(), segs.len(), "states vs segs length");
        let table = self.scaling().expect("states were started, so the table exists");
        let (store, plan) = (self.store(), self.plan());
        let hidden = self.config().hidden_dim;
        let lambda = self.config().lambda;
        let tile = self.wave_tile_rows();
        SCRATCH.with_borrow_mut(|scratch| {
            for (states, segs) in states.chunks_mut(tile).zip(segs.chunks(tile)) {
                let (hs, gh, out, logits) = scratch.tile(states.len(), hidden);
                let rows = states.iter_mut().zip(segs).zip(hs.chunks_exact_mut(hidden));
                for ((st, &seg), h_row) in rows {
                    let st = st.as_mut();
                    bf16::widen_into(h_row, &st.h);
                    let nll = match st.last {
                        // t_1 is the source — fixed by the condition c, so
                        // a session without a predecessor is charged no
                        // prediction loss.
                        None => 0.0,
                        Some(prev) => {
                            self.tg.step_nll(store, logits, h_row, self.successors_of(prev), seg)
                        }
                    };
                    st.traj_nll += nll;
                    let log_scale = table.log_scale(seg, st.time_slot);
                    st.scale_log_sum += log_scale;
                    st.last = Some(seg);
                    st.segments = st.segments.saturating_add(1);
                    emit(st.score(lambda), SegmentTrace { segment: seg, nll, log_scale });
                }
                self.tg.advance_batch(plan, hs, segs, gh, out.chunks_exact_mut(hidden));
                for (st, new_h) in states.iter_mut().zip(out.chunks_exact(hidden)) {
                    bf16::round_into(&mut st.as_mut().h, new_h);
                }
            }
        });
    }

    /// Scores every trip of `pool` over its first `prefix_len(trip)`
    /// segments (at least one, at most all) and returns each trip's final
    /// state, in pool order. The pool is walked the way a serving layer
    /// walks a fleet: ordered longest prefix first, the trips still in
    /// their prefix are a prefix of one state vector, and each position
    /// is one [`CausalTad::step_wave`] over them. Trip `i`'s steps reach
    /// `emit(i, step)` in order, so a caller that wants the per-segment
    /// trace (Fig. 4's data) takes it there. Each state is bit for bit
    /// the one [`CausalTad::start_state`] and [`CausalTad::push_state`]
    /// give over the same prefix.
    ///
    /// # Panics
    /// As [`CausalTad::online`], and on an empty trip.
    pub fn score_pool(
        &self,
        pool: &[Trajectory],
        prefix_len: impl Fn(&Trajectory) -> usize,
        mut emit: impl FnMut(usize, SegmentTrace),
    ) -> Vec<ScorerState> {
        let lens: Vec<usize> = pool.iter().map(|t| prefix_len(t).clamp(1, t.len())).collect();
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
        let mut states: Vec<ScorerState> = order
            .iter()
            .map(|&i| {
                let sd = pool[i].sd_pair();
                self.start_state(sd.source.0, sd.dest.0, pool[i].time_slot)
                    .unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
        let mut segs = Vec::with_capacity(pool.len());
        let longest = order.first().map_or(0, |&i| lens[i]);
        for pos in 0..longest {
            let live = order.partition_point(|&i| lens[i] > pos);
            segs.clear();
            segs.extend(order[..live].iter().map(|&i| pool[i].segments[pos].0));
            let mut row = order.iter();
            self.step_wave(&mut states[..live], &segs, |_, step| {
                emit(*row.next().expect("one step per live row"), step)
            });
        }
        let mut in_pool_order = vec![ScorerState::default(); pool.len()];
        for (state, &i) in states.into_iter().zip(&order) {
            in_pool_order[i] = state;
        }
        in_pool_order
    }

    /// Sessions per row tile of a [`CausalTad::push_batch`] wave — a fixed
    /// function of the hidden width (see
    /// [`crate::TgVae::wave_tile_rows`]), not a tunable. It bounds the
    /// wave's scratch memory.
    pub fn wave_tile_rows(&self) -> usize {
        self.tg.wave_tile_rows()
    }

    /// A handle onto the model's resident inference plan — the decoder's
    /// per-token input-gate projections, its packed recurrent weight and,
    /// when trip starts charge the SD reconstruction, the packed SD heads
    /// — building it if this is the first call that needs it (a few
    /// milliseconds; every push and trip start would otherwise). The plan
    /// is one copy per model however many handles or engines use it, and
    /// is dropped by [`CausalTad::store_mut`], which the handle's borrow
    /// rules out while it lives.
    pub fn build_step_cache(&self) -> StepCache<'_> {
        StepCache { plan: self.plan() }
    }
}

/// Streaming scorer for one ongoing trajectory: a [`ScorerState`] borrowing
/// its model, plus the per-segment trace of the pushes made through it
/// (Fig. 4's data; the state itself keeps only a segment count).
pub struct OnlineScorer<'m> {
    model: &'m CausalTad,
    state: ScorerState,
    trace: Vec<SegmentTrace>,
}

impl<'m> OnlineScorer<'m> {
    /// Resumes a scorer from a previously detached state. The state carries
    /// no per-segment history, so this scorer's [`OnlineScorer::trace`]
    /// covers only the pushes made through it, while [`OnlineScorer::len`]
    /// and the scores cover the whole trip.
    pub fn from_state(model: &'m CausalTad, state: ScorerState) -> Self {
        OnlineScorer { model, state, trace: Vec::new() }
    }

    /// Detaches the owned state (e.g. to park a session); the trace stays
    /// behind.
    pub fn into_state(self) -> ScorerState {
        self.state
    }

    /// The owned state behind this scorer.
    pub fn state(&self) -> &ScorerState {
        &self.state
    }

    /// Consumes the next observed segment and returns the updated anomaly
    /// score. O(1) in the number of segments seen so far.
    pub fn push(&mut self, seg: u32) -> f64 {
        let mut score = f64::NAN;
        self.model.step_wave(std::slice::from_mut(&mut self.state), &[seg], |s, step| {
            score = s;
            self.trace.push(step);
        });
        score
    }

    /// Current debiased anomaly score (Eq. 10). Higher = more anomalous.
    pub fn score(&self) -> f64 {
        self.state.score(self.model.config().lambda)
    }

    /// The un-debiased likelihood part `-ELBO ≈ -log P(c, t)`; this is the
    /// TG-VAE-only score used in the ablation study.
    pub fn likelihood_nll(&self) -> f64 {
        self.state.likelihood_nll()
    }

    /// Accumulated scaling sum `Σ_i log E[1/P(t_i|e_i)]`.
    pub fn scale_log_sum(&self) -> f64 {
        self.state.scale_log_sum()
    }

    /// Number of segments consumed so far.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Per-segment contributions of the pushes made through this scorer
    /// (the data behind Fig. 4).
    pub fn trace(&self) -> &[SegmentTrace] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CausalTadConfig;
    use tad_trajsim::{generate_city, CityConfig};

    fn trained() -> (tad_trajsim::City, CausalTad) {
        let city = generate_city(&CityConfig::test_scale(200));
        let mut cfg = CausalTadConfig::test_scale();
        cfg.epochs = 2;
        let mut model = CausalTad::new(&city.net, cfg);
        model.fit(&city.data.train);
        (city, model)
    }

    #[test]
    fn push_accumulates_trace() {
        let (city, model) = trained();
        let t = &city.data.test_id[0];
        let sd = t.sd_pair();
        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        assert!(scorer.is_empty());
        for (i, &seg) in t.segments.iter().enumerate() {
            let score = scorer.push(seg.0);
            assert!(score.is_finite());
            assert_eq!(scorer.len(), i + 1);
        }
        assert_eq!(scorer.trace().len(), t.len());
        // First segment charges no prediction loss.
        assert_eq!(scorer.trace()[0].nll, 0.0);
        // Later segments do (with overwhelming probability under a freshly
        // trained model the NLLs are strictly positive).
        assert!(scorer.trace()[1..].iter().any(|s| s.nll > 0.0));
    }

    #[test]
    fn debiased_trace_applies_lambda() {
        let step = SegmentTrace { segment: 0, nll: 3.0, log_scale: 2.0 };
        assert!((step.debiased(0.5) - 2.0).abs() < 1e-12);
        assert!((step.debiased(0.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scaling table not computed")]
    fn online_without_fit_panics() {
        let city = generate_city(&CityConfig::test_scale(201));
        let model = CausalTad::new(&city.net, CausalTadConfig::test_scale());
        let _ = model.online(0, 1, 0);
    }

    #[test]
    fn start_state_reports_errors_instead_of_panicking() {
        let city = generate_city(&CityConfig::test_scale(202));
        let untrained = CausalTad::new(&city.net, CausalTadConfig::test_scale());
        assert_eq!(untrained.start_state(0, 1, 0).err(), Some(OnlineError::MissingScalingTable));

        let (_city, model) = trained();
        let vocab = model.vocab() as u32;
        match model.start_state(vocab + 7, 1, 0).err() {
            Some(OnlineError::SegmentOutOfRange { segment, .. }) => assert_eq!(segment, vocab + 7),
            other => panic!("expected SegmentOutOfRange, got {other:?}"),
        }
        assert!(model.start_state(0, 1, 0).is_ok());
    }

    type PrefixLen = fn(&Trajectory) -> usize;

    /// `start_state` + `push_state` over `t`'s first `n` segments, and the
    /// trace an `OnlineScorer` records on the same walk.
    fn walk(model: &CausalTad, t: &Trajectory, n: usize) -> (ScorerState, Vec<SegmentTrace>) {
        let sd = t.sd_pair();
        let mut state = model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("valid");
        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments[..n] {
            model.push_state(&mut state, seg.0);
            scorer.push(seg.0);
        }
        (state, scorer.trace().to_vec())
    }

    /// Scores `pool` in one pass under `prefix_len` and checks every trip
    /// against its own walk over the clamped prefix: state by `PartialEq`
    /// (bit for bit), emitted steps in order against the scorer's trace.
    fn assert_pool_is_per_trip(
        model: &CausalTad,
        pool: &[Trajectory],
        prefix_len: PrefixLen,
        ctx: &str,
    ) {
        let mut traces = vec![Vec::new(); pool.len()];
        let states = model.score_pool(pool, prefix_len, |i, step| traces[i].push(step));
        assert_eq!(states.len(), pool.len(), "{ctx}");
        for (i, t) in pool.iter().enumerate() {
            let (state, trace) = walk(model, t, prefix_len(t).clamp(1, t.len()));
            assert_eq!(states[i], state, "{ctx} trip {i} state");
            assert_eq!(traces[i], trace, "{ctx} trip {i} trace");
        }
    }

    #[test]
    fn score_pool_is_each_trips_walk_bit_for_bit() {
        let (city, model) = trained();
        let test = &city.data.test_id;
        // Unsorted, ragged, with one-segment trips and a duplicated trip.
        let shortest = test.iter().min_by_key(|t| t.len()).expect("a test trip");
        let longest = test.iter().max_by_key(|t| t.len()).expect("a test trip");
        let mut pool = vec![shortest.clone(), longest.clone()];
        pool.extend(test.iter().take(6).cloned());
        pool.push(Trajectory::normal(vec![longest.segments[0]], 1));
        pool.push(pool[1].clone());
        pool.push(Trajectory::normal(vec![shortest.segments[0]], 3));
        pool.push(pool[3].clone());
        assert!(pool.windows(2).any(|w| w[0].len() < w[1].len()), "the pool is unsorted");
        assert!(pool.iter().any(|t| t.len() == 1) && longest.len() > 3, "ragged lengths");

        let rules: [(&str, PrefixLen); 5] = [
            ("0", |_| 0),
            ("1", |_| 1),
            ("len/2", |t| t.len() / 2),
            ("len", Trajectory::len),
            ("len+5", |t| t.len() + 5),
        ];
        for (name, rule) in rules {
            assert_pool_is_per_trip(&model, &pool, rule, &format!("prefix {name}"));
        }
        // The full prefix is what the offline scores read.
        let states = model.score_pool(&pool, Trajectory::len, |_, _| {});
        for (state, t) in states.iter().zip(&pool) {
            assert_eq!(state.score(model.config().lambda).to_bits(), model.score(t).to_bits());
            assert_eq!(state.likelihood_nll().to_bits(), model.score_tg_only(t).to_bits());
        }

        let mut emitted = 0;
        assert!(model.score_pool(&[], Trajectory::len, |_, _| emitted += 1).is_empty());
        assert_eq!(emitted, 0, "an empty pool emits nothing");
    }

    #[test]
    fn score_pool_splits_a_wide_pool_into_tiles() {
        let city = generate_city(&CityConfig::test_scale(204));
        // Untrained weights exercise the same kernels; the scaling table
        // is all a trip needs to start.
        let cfg = CausalTadConfig { hidden_dim: 256, ..CausalTadConfig::test_scale() };
        let mut model = CausalTad::new(&city.net, cfg);
        model.precompute_scaling();
        let tile = model.wave_tile_rows();
        let pool: Vec<Trajectory> =
            city.data.test_id.iter().cycle().take(2 * tile + 3).cloned().collect();
        assert!(pool.len() > tile, "the first waves span more than one tile");
        assert_pool_is_per_trip(&model, &pool, Trajectory::len, "hidden 256");
    }

    #[test]
    fn state_detach_and_resume_matches_straight_run() {
        let (city, model) = trained();
        let t = &city.data.test_id[0];
        let sd = t.sd_pair();

        let mut straight = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments {
            straight.push(seg.0);
        }

        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        let mid = t.len() / 2;
        for &seg in &t.segments[..mid] {
            scorer.push(seg.0);
        }
        let parked = scorer.into_state();
        let mut resumed = OnlineScorer::from_state(&model, parked);
        for &seg in &t.segments[mid..] {
            resumed.push(seg.0);
        }
        assert_eq!(resumed.score(), straight.score());
        assert_eq!(resumed.len(), straight.len());
    }

    #[test]
    fn push_batch_matches_sequential_push() {
        let (city, model) = trained();
        let cache = model.build_step_cache();
        let trips: Vec<_> = city.data.test_id.iter().take(8).collect();

        // Sequential reference scores.
        let reference: Vec<f64> = trips
            .iter()
            .map(|t| {
                let sd = t.sd_pair();
                let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
                let mut last = f64::NAN;
                for &seg in &t.segments {
                    last = scorer.push(seg.0);
                }
                last
            })
            .collect();

        // Batched: advance all sessions in lockstep waves.
        let mut states: Vec<ScorerState> = trips
            .iter()
            .map(|t| {
                let sd = t.sd_pair();
                model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("valid request")
            })
            .collect();
        let mut final_scores = vec![f64::NAN; trips.len()];
        let max_len = trips.iter().map(|t| t.len()).max().unwrap();
        for step in 0..max_len {
            let wave: Vec<usize> = (0..trips.len()).filter(|&i| step < trips[i].len()).collect();
            let segs: Vec<u32> = wave.iter().map(|&i| trips[i].segments[step].0).collect();
            let mut wave_states: Vec<ScorerState> =
                wave.iter().map(|&i| std::mem::take(&mut states[i])).collect();
            let scores = model.push_batch(Some(&cache), &mut wave_states, &segs);
            for ((&i, st), score) in wave.iter().zip(wave_states).zip(scores) {
                states[i] = st;
                final_scores[i] = score;
            }
        }

        for (batched, sequential) in final_scores.iter().zip(&reference) {
            assert_eq!(
                batched.to_bits(),
                sequential.to_bits(),
                "batched {batched} vs sequential {sequential}"
            );
        }
    }

    /// The tiled wave's contract, swept across the tile boundary: whatever
    /// the width, whichever tile a row lands in, and whatever shares the
    /// tile with it, row `i` of `push_batch` and `step_wave` equals
    /// `push_state` alone — score, emitted step and state, bit for bit.
    #[test]
    fn push_batch_tile_boundaries_match_push_state_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let city = generate_city(&CityConfig::test_scale(203));
        for hidden_dim in [48, 256] {
            // Untrained weights exercise the same kernels; the scaling
            // table is all a session needs to start.
            let cfg = CausalTadConfig { hidden_dim, ..CausalTadConfig::test_scale() };
            let mut model = CausalTad::new(&city.net, cfg);
            model.precompute_scaling();
            let cache = model.build_step_cache();
            let vocab = model.vocab() as u32;
            let tile = model.wave_tile_rows();
            // A predecessor many sessions share, so tiles hold multi-row
            // successor groups next to singleton ones.
            let hub = (0..vocab).find(|&s| model.successors_of(s).len() >= 2).expect("a junction");
            let mut rng = StdRng::seed_from_u64(hidden_dim as u64);

            for width in [1, tile - 1, tile, tile + 1, 3 * tile + 5] {
                let mut states = Vec::with_capacity(width);
                let mut segs = Vec::with_capacity(width);
                let (mut fresh, mut off_graph, mut shared) = (0, 0, 0);
                for i in 0..width {
                    let (s, d) = (rng.gen_range(0..vocab), rng.gen_range(0..vocab));
                    let mut st = model.start_state(s, d, (i % 4) as u8).expect("in vocabulary");
                    let kind = if width == 1 { 1 } else { rng.gen_range(0..8) };
                    if kind == 0 {
                        // Before its first segment: no predecessor.
                        fresh += 1;
                        segs.push(rng.gen_range(0..vocab));
                    } else {
                        let prev = if kind <= 3 { hub } else { rng.gen_range(0..vocab) };
                        shared += usize::from(prev == hub);
                        model.push_state(&mut st, s);
                        model.push_state(&mut st, prev);
                        let succ = model.successors_of(prev);
                        if kind == 7 || succ.is_empty() {
                            let jump =
                                (0..vocab).find(|c| !succ.contains(c)).expect("sparse graph");
                            off_graph += 1;
                            segs.push(jump);
                        } else {
                            segs.push(succ[rng.gen_range(0..succ.len())]);
                        }
                    }
                    states.push(st);
                }
                if width >= tile - 1 {
                    assert!(fresh > 0 && off_graph > 0 && shared > 1, "the mix covers every path");
                }

                let mut sequential = states.clone();
                let reference: Vec<(f64, SegmentTrace)> = sequential
                    .iter_mut()
                    .zip(&segs)
                    .map(|(st, &seg)| {
                        let pushed = model.push_state(&mut st.clone(), seg);
                        let mut row = None;
                        model.step_wave(std::slice::from_mut(st), &[seg], |s, step| {
                            row = Some((s, step))
                        });
                        let (score, step) = row.expect("a one-row step emits one row");
                        assert_eq!(score.to_bits(), pushed.to_bits());
                        (score, step)
                    })
                    .collect();
                let mut waved = states.clone();
                let mut steps = Vec::with_capacity(width);
                model.step_wave(&mut waved, &segs, |s, step| steps.push((s, step)));
                assert_eq!(waved, sequential, "hidden {hidden_dim} width {width} step_wave");
                for (i, ((bs, bt), (ss, st))) in steps.iter().zip(&reference).enumerate() {
                    let ctx = format!("hidden {hidden_dim} width {width} row {i}");
                    assert_eq!(bs.to_bits(), ss.to_bits(), "{ctx} score");
                    assert_eq!(bt.segment, st.segment, "{ctx}");
                    assert_eq!(bt.nll.to_bits(), st.nll.to_bits(), "{ctx} nll");
                    assert_eq!(bt.log_scale.to_bits(), st.log_scale.to_bits(), "{ctx} log_scale");
                }
                for cache in [None, Some(&cache)] {
                    let mut batched = states.clone();
                    let scores = model.push_batch(cache, &mut batched, &segs);
                    let ctx =
                        format!("hidden {hidden_dim} width {width} cache {}", cache.is_some());
                    assert_eq!(scores.len(), width, "{ctx}");
                    for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
                        assert_eq!(scores[i].to_bits(), reference[i].0.to_bits(), "{ctx} row {i}");
                        assert!(
                            b.hidden()
                                .iter()
                                .zip(s.hidden())
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{ctx} row {i} hidden"
                        );
                        assert_eq!(b, s, "{ctx} row {i} state");
                    }
                }
                if off_graph > 0 {
                    let charged = reference
                        .iter()
                        .filter(|(_, step)| step.nll == crate::OFF_GRAPH_NLL)
                        .count();
                    assert_eq!(charged, off_graph, "off-graph hops are charged the penalty");
                }
            }
        }
    }

    #[test]
    fn reset_context_opens_a_fresh_leg() {
        let (city, model) = trained();
        let t = &city.data.test_id[0];
        let sd = t.sd_pair();
        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments {
            scorer.push(seg.0);
        }
        let before = scorer.state().clone();

        // A wildly off-network jump target: the same push charges the
        // off-graph penalty without a reset, and zero prediction loss with
        // one.
        let jump = (t.segments[0].0 + 1) % model.vocab() as u32;
        let mut through = OnlineScorer::from_state(&model, before.clone());
        through.push(jump);
        let charged = through.trace().last().unwrap().nll;

        let mut reset_state = before.clone();
        reset_state.reset_context();
        assert_eq!(reset_state.last_segment(), None);
        // Only the predecessor is forgotten; scores and hidden state stay.
        assert_eq!(reset_state.likelihood_nll(), before.likelihood_nll());
        assert_eq!(reset_state.hidden(), before.hidden());
        let mut fresh = OnlineScorer::from_state(&model, reset_state);
        fresh.push(jump);
        let step = fresh.trace().last().unwrap();
        assert_eq!(step.nll, 0.0, "first segment of a fresh leg charges no prediction loss");
        assert!(charged > 0.0 || step.nll <= charged);
        assert_eq!(fresh.state().last_segment(), Some(jump));
    }

    #[test]
    fn score_components_add_up() {
        let (city, model) = trained();
        let t = &city.data.test_id[1];
        let sd = t.sd_pair();
        let mut scorer = model.online(sd.source.0, sd.dest.0, t.time_slot);
        for &seg in &t.segments {
            scorer.push(seg.0);
        }
        let recomposed = scorer.likelihood_nll() - model.config().lambda * scorer.scale_log_sum();
        assert!((scorer.score() - recomposed).abs() < 1e-12);
        // Trace sums must equal the accumulators.
        let nll_sum: f64 = scorer.trace().iter().map(|s| s.nll).sum();
        let scale_sum: f64 = scorer.trace().iter().map(|s| s.log_scale).sum();
        assert!((scorer.likelihood_nll() - (nll_sum + scorer.state().base_nll)).abs() < 1e-9);
        assert!((scorer.scale_log_sum() - scale_sum).abs() < 1e-9);
    }
}
