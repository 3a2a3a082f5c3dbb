//! Neural-network layers built on the autodiff tape.
//!
//! Layers own only [`ParamId`]s; the actual tensors live in the shared
//! [`ParamStore`], so a model is a plain struct of layers plus one store.
//!
//! A layer has one taped forward (`forward`, recording onto a [`Tape`] for
//! training) and one tape-free forward (`infer`, over slices, for scoring),
//! and both take their values from the same [`crate::ops`] kernel: a
//! [`Linear`] layer's affine map and road-constrained subset logits, a
//! [`GruCell`]'s gate epilogue. The two agree bit for bit by construction.
//!
//! A [`GruCell`] is driven two ways: [`BoundGru::input_gates`] +
//! [`BoundGru::sequence`] record a whole teacher-forced pass — a ragged
//! batch of trajectories, planned by [`ragged_schedule`] — as one GEMM
//! plus one recurrence node (every trainer: CausalTAD's and the sequence
//! baselines'), and
//! [`GruCell::infer_step_rows`] steps without a tape (scoring): any number
//! of rows against a recurrent weight packed once
//! ([`GruCell::pack_recurrent`]), with [`GruCell::infer_sequence`] as its
//! one-sequence form. The node is proven against a per-step reference
//! (`BoundGru::step_pregated`, test code in `nn/reference.rs`), and that
//! against [`BoundGru::step_unfused`]; nothing trains through either.

use rand::Rng;

use crate::ops;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::{PackedRhs, Tensor, MR};

/// Xavier/Glorot uniform initialisation for a `fan_in x fan_out` matrix.
fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(fan_in, fan_out, -limit, limit, rng)
}

/// Fully connected layer `y = x · W + b` with `W: in x out` ([`Linear::new`])
/// or `y = x · Wᵀ + b` with `W: out x in`, one contiguous row per output
/// class ([`Linear::new_rowmajor`]); `b: 1 x out`. The layer records its
/// layout, so every forward applies the product its weight is stored for.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    out_dim: usize,
    rowmajor: bool,
}

impl Linear {
    /// Registers a new layer's parameters under `name.w` / `name.b`
    /// ([`ParamStore::param`]: drawn from `rng` in a fresh store, claimed
    /// in a decoded one — as for every constructor in this module).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w =
            store.param(format!("{name}.w"), (in_dim, out_dim), |r, c| xavier_uniform(r, c, rng));
        let b = store.param(format!("{name}.b"), (1, out_dim), Tensor::zeros);
        Linear { w, b, out_dim, rowmajor: false }
    }

    /// Registers a layer whose weight is stored `out x in` (one contiguous
    /// row per output class), enabling [`Linear::forward_subset`],
    /// [`Linear::subset_cross_entropy`] and [`Linear::infer_subset_row`].
    pub fn new_rowmajor<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w =
            store.param(format!("{name}.w"), (out_dim, in_dim), |r, c| xavier_uniform(r, c, rng));
        let b = store.param(format!("{name}.b"), (1, out_dim), Tensor::zeros);
        Linear { w, b, out_dim, rowmajor: true }
    }

    /// Applies the layer to a `batch x in` input: one fused matmul + bias
    /// node ([`Tape::linear`]) in the layer's layout — the full-vocab heads
    /// produce `batch x vocab` outputs, so skipping a separate
    /// broadcast-add node saves a full-size copy in both passes.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.linear(x, w, b, self.rowmajor)
    }

    /// Projects onto a *subset* of output classes: gathers rows `classes` of
    /// `W` (plus matching bias entries) and returns `batch x classes.len()`
    /// logits. This is the composed reference of the road-constrained
    /// prediction kernel ([`Linear::subset_cross_entropy`] fuses it for
    /// training, [`Linear::infer_subset_row`] runs it for scoring): cost is
    /// `O(in_dim * classes.len())` instead of `O(in_dim * out_dim)`.
    /// Nothing trains through it. It stays `pub` because core's scalar
    /// training reference calls it from another crate, where a `cfg(test)`
    /// item of this one is invisible.
    ///
    /// Requires a row-major layer ([`Linear::new_rowmajor`]).
    pub fn forward_subset(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        classes: &[u32],
    ) -> Var {
        debug_assert!(self.rowmajor, "forward_subset requires a row-major layer");
        let w_rows = tape.gather_rows(store, self.w, classes); // k x in
        let logits = tape.matmul_t(x, w_rows); // batch x k
        let b = tape.gather_cols(store, self.b, classes);
        tape.add(logits, b)
    }

    /// Grouped class-subset softmax cross-entropy for a row-major layer:
    /// row `i` of `x` is scored against classes
    /// `cands[offsets[i]..offsets[i+1]]` with `targets[i]` indexing into
    /// its span; returns the summed CE loss as one fused tape node
    /// ([`Tape::subset_softmax_ce`]). A batch's entire
    /// road-constrained head records one node instead of several per
    /// transition.
    pub fn subset_cross_entropy(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        cands: &[u32],
        offsets: &[u32],
        targets: &[u32],
    ) -> Var {
        debug_assert!(self.rowmajor, "subset_cross_entropy requires a row-major layer");
        tape.subset_softmax_ce(store, x, self.w, self.b, cands, offsets, targets)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter handle.
    pub fn bias(&self) -> ParamId {
        self.b
    }

    /// [`Linear::forward`] without a tape, in borrowed storage: `x` holds
    /// any number of row-major input rows and `out` receives as many output
    /// rows. The kernel is the taped node's ([`ops::linear`]), so are the
    /// bits.
    pub fn infer(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        ops::linear(x, store.value(self.w), store.value(self.b), self.rowmajor, out);
    }

    /// The weight of a row-major layer packed once as the right operand of
    /// [`Linear::infer_packed`], for callers that project many inputs
    /// against a weight that does not change (valid until it does).
    pub fn pack(&self, store: &ParamStore) -> PackedRhs {
        debug_assert!(self.rowmajor, "pack requires a row-major layer");
        let w = store.value(self.w);
        let (rows, cols) = PackedRhs::storage_shape(w.cols(), w.rows());
        PackedRhs::pack_transposed(w, Tensor::zeros(rows, cols))
    }

    /// [`Linear::infer`] against the weight packed by [`Linear::pack`],
    /// bit for bit; nothing allocated.
    pub fn infer_packed(&self, store: &ParamStore, w: &PackedRhs, x: &[f32], out: &mut [f32]) {
        w.matmul_into(x, out);
        ops::add_bias_rows(out, store.value(self.b));
    }

    /// Tape-free class-subset projection of one input row for a row-major
    /// layer: `out[j]` is the logit of class `classes[j]`
    /// ([`ops::subset_logits`], the kernel of the fused training node) —
    /// the bits of [`Linear::forward_subset`]'s gather + product, with no
    /// gather.
    pub fn infer_subset_row(
        &self,
        store: &ParamStore,
        x: &[f32],
        classes: &[u32],
        out: &mut [f32],
    ) {
        debug_assert!(self.rowmajor, "infer_subset_row requires a row-major layer");
        ops::subset_logits(store.value(self.w), store.value(self.b), x, classes, out);
    }
}

/// Token embedding table of shape `vocab x dim`.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a new embedding table initialised `N(0, 0.1^2)`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let table = store.param(format!("{name}.table"), (vocab, dim), |r, c| {
            Tensor::randn(r, c, 0.0, 0.1, rng)
        });
        Embedding { table, vocab, dim }
    }

    /// Looks up `ids`, returning an `ids.len() x dim` tensor on the tape.
    pub fn lookup(&self, tape: &mut Tape, store: &ParamStore, ids: &[u32]) -> Var {
        debug_assert!(ids.iter().all(|&i| (i as usize) < self.vocab), "Embedding: id out of vocab");
        tape.gather_rows(store, self.table, ids)
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying table parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Tape-free lookup for inference.
    pub fn embed(&self, store: &ParamStore, ids: &[u32]) -> Tensor {
        store.value(self.table).gather_rows(ids)
    }
}

/// Gated recurrent unit cell with packed gates.
///
/// `W: in x 3h`, `U: h x 3h`, `b: 1 x 3h`, gate order `[z | r | n]`
/// ([`ops::gru_gates`]):
/// ```text
/// z = sigmoid(xWz + hUz + bz)
/// r = sigmoid(xWr + hUr + br)
/// n = tanh  (xWn + r * (hUn) + bn)
/// h' = n + z * (h - n)
/// ```
#[derive(Clone, Debug)]
pub struct GruCell {
    w: ParamId,
    u: ParamId,
    b: ParamId,
    hidden: usize,
}

impl GruCell {
    /// Registers a new GRU cell.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        // Saturating: a width read from a hostile header is compared with
        // a decoded shape, never multiplied into an allocation.
        let gates = hidden.saturating_mul(3);
        let w = store.param(format!("{name}.w"), (in_dim, gates), |r, c| xavier_uniform(r, c, rng));
        let u = store.param(format!("{name}.u"), (hidden, gates), |r, c| xavier_uniform(r, c, rng));
        let b = store.param(format!("{name}.b"), (1, gates), Tensor::zeros);
        GruCell { w, u, b, hidden }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Records the parameter leaves once per tape, so every step of a
    /// recurrence reads the same three nodes (and the store's tensors in
    /// place).
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> BoundGru {
        BoundGru {
            w: tape.param(store, self.w),
            u: tape.param(store, self.u),
            b: tape.param(store, self.b),
            hidden: self.hidden,
        }
    }

    /// The recurrent weight `U` packed once for [`GruCell::infer_step_rows`]
    /// (valid until `U` changes).
    pub fn pack_recurrent(&self, store: &ParamStore) -> PackedRhs {
        let (rows, cols) = PackedRhs::storage_shape(self.hidden, 3 * self.hidden);
        PackedRhs::pack(store.value(self.u), Tensor::zeros(rows, cols))
    }

    /// Steps one sequence from `h0` through its pregated inputs (`gx`:
    /// one [`GruCell::input_gates`] row per step), returning every step's
    /// hidden row (`gx.rows() x hidden`) — the tape-free counterpart of
    /// [`BoundGru::sequence`] on a one-row schedule, bit for bit. `U` is
    /// packed once for the pass.
    pub fn infer_sequence(&self, store: &ParamStore, gx: &Tensor, h0: &[f32]) -> Tensor {
        let hd = self.hidden;
        let u = self.pack_recurrent(store);
        let mut gh = vec![0.0; 3 * hd];
        let mut rows = Tensor::zeros(gx.rows(), hd);
        for t in 0..gx.rows() {
            let (done, rest) = rows.data_mut().split_at_mut(t * hd);
            let prev = if t == 0 { h0 } else { &done[(t - 1) * hd..] };
            self.infer_step_rows(&u, |_| gx.row(t), prev, &mut gh, [&mut rest[..hd]]);
        }
        rows
    }

    /// The input-gate pre-activations `x · W + b` (`batch x 3h`) that
    /// [`GruCell::infer_step_rows`] reads per row — [`ops::linear`], as
    /// [`BoundGru::input_gates`] records it. They depend only on the
    /// input, so callers with a fixed input vocabulary precompute them
    /// once per token and skip this matmul on every step.
    pub fn input_gates(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut gx = Tensor::zeros(x.rows(), 3 * self.hidden);
        ops::linear(x.data(), store.value(self.w), store.value(self.b), false, gx.data_mut());
        gx
    }

    /// Rows per tile of a batched inference step: as many as keep one
    /// tile's `rows x 3h` gate pre-activations within ~192 KiB (64 rows at
    /// hidden 256, 340 at hidden 48), rounded down to the matmul
    /// micro-kernel's row-tile height. A tile of stacked hidden rows plus
    /// its gates then stays L2-resident from the `h · U` product through
    /// the gate epilogue, whatever the width of the batch being walked.
    pub fn infer_tile_rows(&self) -> usize {
        const GATE_TILE_BYTES: usize = 192 * 1024;
        let rows = GATE_TILE_BYTES / (3 * self.hidden.max(1) * std::mem::size_of::<f32>());
        (rows / MR * MR).max(MR)
    }

    /// The tape-free recurrence step — the one every scorer runs, for one
    /// row or a tile of them — written into the caller's storage. `u` is
    /// [`GruCell::pack_recurrent`], `hs` the stacked hidden rows
    /// (`rows x hidden`), row `r`'s pregated input (`x · W + b`, see
    /// [`GruCell::input_gates`]) is read through `gx_of` — e.g. straight
    /// out of a precomputed per-token table, skipping any gather copy —
    /// and `gh` is scratch of `rows x 3h` floats that receives `hs · U` and
    /// is then consumed in place by the gate epilogue. The new hidden row
    /// `r` goes to the `r`-th slice `out` yields (typically the storage
    /// `hs` row `r` was stacked from), so no `rows x hidden` result matrix
    /// exists.
    ///
    /// Each row's result depends only on that row's inputs, bit for bit:
    /// the matmul accumulates k-ascending per row whatever the row count.
    /// The epilogue is [`ops::gru_gates`], the one [`BoundGru::sequence`]
    /// records, so a row is bit-identical to the taped step.
    ///
    /// # Panics
    /// Panics if `hs` and `gh` do not hold the same number of `hidden` /
    /// `3h`-wide rows, or `out` yields fewer slices of `hidden` floats.
    pub fn infer_step_rows<'a, 'o>(
        &self,
        u: &PackedRhs,
        gx_of: impl Fn(usize) -> &'a [f32],
        hs: &[f32],
        gh: &mut [f32],
        out: impl IntoIterator<Item = &'o mut [f32]>,
    ) {
        let hd = self.hidden;
        assert_eq!(hs.len() * 3, gh.len(), "GruCell: gate scratch is not rows x 3h");
        u.matmul_into(hs, gh);
        let mut out = out.into_iter();
        let rows = gh.chunks_exact_mut((3 * hd).max(1)).zip(hs.chunks_exact(hd.max(1)));
        for (r, (gh_row, h_row)) in rows.enumerate() {
            let out_row = out.next().expect("GruCell: one output row per hidden row");
            assert_eq!(out_row.len(), hd, "GruCell: output row width");
            ops::gru_gates(gx_of(r), gh_row, h_row, out_row, None);
        }
    }

    /// Gate bias parameter handle (`1 x 3h`).
    pub fn gate_bias(&self) -> ParamId {
        self.b
    }
}

/// A [`GruCell`] whose weights are already on a tape.
#[derive(Clone, Copy, Debug)]
pub struct BoundGru {
    w: Var,
    u: Var,
    b: Var,
    hidden: usize,
}

impl BoundGru {
    /// Computes the input-gate projections `x·W + b` for a whole
    /// row-stacked sequence in one fused GEMM — the training-side
    /// counterpart of the scoring plan's per-token gate table
    /// ([`GruCell::input_gates`]). Feed the result to
    /// [`BoundGru::sequence`].
    pub fn input_gates(&self, tape: &mut Tape, x_all: Var) -> Var {
        tape.linear(x_all, self.w, self.b, false)
    }

    /// The whole ragged recurrence of a batch as one
    /// [`Tape::gru_sequence`] node: `gx_all` are the time-major
    /// [`BoundGru::input_gates`] of every (step, sequence) pair, `h0` one
    /// initial state per sequence, `schedule[t]` the sequences (rows of
    /// `h0`, ascending) still running at step `t` ([`ragged_schedule`]).
    /// Returns every step's
    /// hidden rows stacked time-major like `gx_all`. `U` and `Uᵀ` are
    /// packed once per pass and `dU` is a single GEMM; row `i` of step `t`
    /// is bit-identical to what [`GruCell::infer_step_rows`] gives that
    /// sequence.
    pub fn sequence(&self, tape: &mut Tape, gx_all: Var, h0: Var, schedule: &[Vec<u32>]) -> Var {
        tape.gru_sequence(gx_all, h0, self.u, schedule)
    }

    /// The op-by-op GRU formulation (`x` is `batch x in_dim`) using only
    /// primitive tape ops, kept as a reference for tests: the fused step
    /// node equals it bit for bit, values and gradients (`tape::tests`),
    /// and core's scalar training reference steps through it. It stays
    /// `pub` because that reference is in another crate, where a
    /// `cfg(test)` item of this one is invisible; nothing trains through
    /// it.
    pub fn step_unfused(&self, tape: &mut Tape, x: Var, h: Var) -> Var {
        let hd = self.hidden;
        let gx0 = tape.matmul(x, self.w);
        let gx = tape.add(gx0, self.b);
        let gh = tape.matmul(h, self.u);

        let zx = tape.slice_cols(gx, 0, hd);
        let zh = tape.slice_cols(gh, 0, hd);
        let z_in = tape.add(zx, zh);
        let z = tape.sigmoid(z_in);

        let rx = tape.slice_cols(gx, hd, hd);
        let rh = tape.slice_cols(gh, hd, hd);
        let r_in = tape.add(rx, rh);
        let r = tape.sigmoid(r_in);

        let nx = tape.slice_cols(gx, 2 * hd, hd);
        let nh = tape.slice_cols(gh, 2 * hd, hd);
        let rnh = tape.mul(r, nh);
        let n_in = tape.add(nx, rnh);
        let n = tape.tanh(n_in);

        // h' = n + z * (h - n)
        let h_minus_n = tape.sub(h, n);
        let gated = tape.mul(z, h_minus_n);
        tape.add(n, gated)
    }
}

/// The ragged schedule of a batch of teacher-forced sequences whose row `i`
/// runs `steps[i]` steps: per step, the rows still running, ascending, for
/// [`BoundGru::sequence`]. Planning it up front is what lets the input
/// gates of every (step, sequence) pair be one GEMM outside the recurrence
/// and the heads line up with its time-major rows.
pub fn ragged_schedule(steps: &[usize]) -> Vec<Vec<u32>> {
    let longest = steps.iter().copied().max().unwrap_or(0);
    let mut schedule: Vec<Vec<u32>> = Vec::with_capacity(longest);
    let mut active: Vec<u32> = (0..steps.len() as u32).collect();
    for t in 0..longest {
        active.retain(|&i| steps[i as usize] > t);
        schedule.push(active.clone());
    }
    schedule
}

/// Head producing the parameters of a diagonal Gaussian posterior.
#[derive(Clone, Debug)]
pub struct GaussianHead {
    mu: Linear,
    logvar: Linear,
}

impl GaussianHead {
    /// Registers `mu`/`logvar` projections from `in_dim` to `latent_dim`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        latent_dim: usize,
        rng: &mut R,
    ) -> Self {
        GaussianHead {
            mu: Linear::new(store, &format!("{name}.mu"), in_dim, latent_dim, rng),
            logvar: Linear::new(store, &format!("{name}.logvar"), in_dim, latent_dim, rng),
        }
    }

    /// Returns `(mu, logvar)` for input `x`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> (Var, Var) {
        (self.mu.forward(tape, store, x), self.logvar.forward(tape, store, x))
    }

    /// Latent width.
    pub fn latent_dim(&self) -> usize {
        self.mu.out_dim()
    }

    /// [`GaussianHead::forward`] without a tape, in borrowed storage (any
    /// number of rows, [`Linear::infer`]).
    pub fn infer(&self, store: &ParamStore, x: &[f32], mu: &mut [f32], logvar: &mut [f32]) {
        self.mu.infer(store, x, mu);
        self.logvar.infer(store, x, logvar);
    }
}

/// Closed-form `KL(N(mu, diag(e^logvar)) || N(0, I))` of an inferred
/// posterior: `Σ -0.5·(1 + lv − m² − e^lv)` over every element, each term
/// evaluated in f32 and summed in f64 — the tape-free counterpart of the
/// KL node the training losses build, shared by every scorer that adds a
/// KL to a score.
pub fn gaussian_kl(mu: &[f32], logvar: &[f32]) -> f64 {
    mu.iter().zip(logvar).map(|(&m, &lv)| -0.5 * (1.0 + lv - m * m - lv.exp()) as f64).sum()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(2, 3));
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (2, 5));
        // Zero input => output equals bias (zero-initialised).
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rowmajor_subset_matches_full_projection() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = Linear::new_rowmajor(&mut store, "proj", 4, 7, &mut rng);
        // Give the bias some structure.
        store
            .value_mut(layer.bias())
            .data_mut()
            .iter_mut()
            .enumerate()
            .for_each(|(i, b)| *b = i as f32 * 0.1);
        let x_t = Tensor::rand_uniform(1, 4, -1.0, 1.0, &mut rng);

        let mut tape = Tape::new();
        let x = tape.input(x_t.clone());
        let full = layer.forward(&mut tape, &store, x);
        let subset = layer.forward_subset(&mut tape, &store, x, &[6, 0, 3]);
        let fv = tape.value(full).clone();
        let sv = tape.value(subset).clone();
        for (i, &c) in [6usize, 0, 3].iter().enumerate() {
            assert!((fv.get(0, c) - sv.get(0, i)).abs() < 1e-5);
        }
    }

    #[test]
    fn a_square_rowmajor_layer_forwards_x_times_w_transposed() {
        // A square weight fits the product of either layout, so only the
        // layer's record of its own layout picks the right one.
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let layer = Linear::new_rowmajor(&mut store, "sq", 3, 3, &mut rng);
        *store.value_mut(layer.bias()) = Tensor::row_vector(&[0.5, -1.0, 2.0]);
        let x_t = Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng);
        let (w, b) = (store.value(layer.weight()), store.value(layer.bias()));
        // `x·Wᵀ + b` and `x·W + b` as ascending-`k` `mul_add` chains.
        let product = |transposed: bool| {
            let mut y = Tensor::zeros(2, 3);
            for i in 0..2 {
                for j in 0..3 {
                    let w_at = |k| if transposed { w.get(j, k) } else { w.get(k, j) };
                    let dot = (0..3).fold(0.0f32, |acc, k| x_t.get(i, k).mul_add(w_at(k), acc));
                    y.set(i, j, dot + b.get(0, j));
                }
            }
            y
        };
        let (want, wrong) = (product(true), product(false));
        assert_ne!(want, wrong, "the weight is not symmetric enough to tell the layouts apart");

        let mut tape = Tape::new();
        let x = tape.input(x_t.clone());
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(bits(tape.value(y).data()), bits(want.data()));
        let mut out = [0.0f32; 6];
        layer.infer(&store, x_t.data(), &mut out);
        assert_eq!(bits(&out), bits(want.data()));
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 10, 4, &mut rng);
        let mut tape = Tape::new();
        let e = emb.lookup(&mut tape, &store, &[7, 1]);
        assert_eq!(tape.value(e).shape(), (2, 4));
        assert_eq!(tape.value(e).row(0), store.value(emb.table()).row(7));
    }

    #[test]
    fn gru_step_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "gru", 3, 6, &mut rng);
        let mut tape = Tape::new();
        let bound = gru.bind(&mut tape, &store);
        let x = tape.input(Tensor::rand_uniform(1, 3, -1.0, 1.0, &mut rng));
        let gx = bound.input_gates(&mut tape, x);
        let h0 = tape.input(Tensor::zeros(1, 6));
        let h1 = bound.step_pregated(&mut tape, gx, 0, h0);
        let h2 = bound.step_pregated(&mut tape, gx, 0, h1);
        assert_eq!(tape.value(h2).shape(), (1, 6));
        // GRU output is a convex combination of tanh outputs and prior state.
        assert!(tape.value(h2).data().iter().all(|&v| v > -1.0 && v < 1.0));
    }

    #[test]
    fn gru_zero_update_gate_keeps_interpolating() {
        // With all weights zero, z = sigmoid(0) = 0.5, n = 0, so h' = 0.5 h.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "gru", 2, 2, &mut rng);
        for id in store.ids() {
            store.value_mut(id).fill_zero();
        }
        let mut tape = Tape::new();
        let bound = gru.bind(&mut tape, &store);
        let x = tape.input(Tensor::zeros(1, 2));
        let gx = bound.input_gates(&mut tape, x);
        let h0 = tape.input(Tensor::from_vec(1, 2, vec![1.0, -1.0]));
        let h1 = bound.step_pregated(&mut tape, gx, 0, h0);
        assert!((tape.value(h1).get(0, 0) - 0.5).abs() < 1e-6);
        assert!((tape.value(h1).get(0, 1) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn infer_paths_match_tape_paths() {
        // Every tape-free forward against its taped twin, to the bit, at
        // widths on both sides of the matmul panel (16 columns) and row
        // counts on both sides of its row tile (4 rows).
        for hd in [5, 20, 32, 48, 128] {
            for rows in [1, 3, 4, 7, 9, 17] {
                let case = format!("hidden {hd}, {rows} rows");
                let (in_dim, vocab) = (7, 2 * hd + 3);
                let mut rng = StdRng::seed_from_u64((hd * 100 + rows) as u64);
                let mut store = ParamStore::new();
                let lin = Linear::new(&mut store, "lin", in_dim, hd, &mut rng);
                let row = Linear::new_rowmajor(&mut store, "row", hd, vocab, &mut rng);
                let head = GaussianHead::new(&mut store, "head", in_dim, hd, &mut rng);
                let gru = GruCell::new(&mut store, "gru", in_dim, hd, &mut rng);
                // Non-zero biases, and weights wide enough to leave the
                // gates' linear range.
                for id in store.ids().collect::<Vec<_>>() {
                    let (r, c) = store.value(id).shape();
                    *store.value_mut(id) = Tensor::rand_uniform(r, c, -0.7, 0.7, &mut rng);
                }
                let x_t = Tensor::rand_uniform(rows, in_dim, -1.0, 1.0, &mut rng);
                let h_t = Tensor::rand_uniform(rows, hd, -0.9, 0.9, &mut rng);
                let mut tape = Tape::new();
                let x = tape.input(x_t.clone());
                let h = tape.input(h_t.clone());

                // Linear in both layouts, the row-major one also against
                // its packed weight and on a subset of its classes.
                let taped = lin.forward(&mut tape, &store, x);
                let mut out = vec![0.0; rows * hd];
                lin.infer(&store, x_t.data(), &mut out);
                assert_eq!(bits(tape.value(taped).data()), bits(&out), "Linear, {case}");

                let taped = row.forward(&mut tape, &store, h);
                let mut out = vec![0.0; rows * vocab];
                row.infer(&store, h_t.data(), &mut out);
                assert_eq!(bits(tape.value(taped).data()), bits(&out), "row-major, {case}");
                out.fill(0.0);
                row.infer_packed(&store, &row.pack(&store), h_t.data(), &mut out);
                assert_eq!(bits(tape.value(taped).data()), bits(&out), "packed, {case}");

                let classes: Vec<u32> = (0..vocab as u32).rev().step_by(3).collect();
                let taped = row.forward_subset(&mut tape, &store, h, &classes);
                let mut sub = vec![0.0; classes.len()];
                for r in 0..rows {
                    row.infer_subset_row(&store, h_t.row(r), &classes, &mut sub);
                    assert_eq!(bits(tape.value(taped).row(r)), bits(&sub), "subset, {case}");
                }

                let (mu, logvar) = head.forward(&mut tape, &store, x);
                let (mut mu_i, mut logvar_i) = (vec![0.0; rows * hd], vec![0.0; rows * hd]);
                head.infer(&store, x_t.data(), &mut mu_i, &mut logvar_i);
                assert_eq!(bits(tape.value(mu).data()), bits(&mu_i), "mu, {case}");
                assert_eq!(bits(tape.value(logvar).data()), bits(&logvar_i), "logvar, {case}");

                // The GRU: its input gates, then `rows` sequences one step
                // each (and the per-step reference node), then one
                // sequence of `rows` steps.
                let bound = gru.bind(&mut tape, &store);
                let gx = bound.input_gates(&mut tape, x);
                let gx_t = gru.input_gates(&store, &x_t);
                assert_eq!(bits(tape.value(gx).data()), bits(gx_t.data()), "gates, {case}");

                let all_rows: Vec<u32> = (0..rows as u32).collect();
                let wide = bound.sequence(&mut tape, gx, h, &[all_rows]);
                let pregated = bound.step_pregated(&mut tape, gx, 0, h);
                let (mut gh, mut out) = (vec![0.0; rows * 3 * hd], vec![0.0; rows * hd]);
                let u = gru.pack_recurrent(&store);
                gru.infer_step_rows(&u, |r| gx_t.row(r), h_t.data(), &mut gh, out.chunks_mut(hd));
                assert_eq!(bits(tape.value(wide).data()), bits(&out), "one step, {case}");
                assert_eq!(bits(tape.value(pregated).data()), bits(&out), "pregated, {case}");

                let h0 = tape.input(Tensor::row_vector(h_t.row(0)));
                let long = bound.sequence(&mut tape, gx, h0, &vec![vec![0]; rows]);
                let inferred = gru.infer_sequence(&store, &gx_t, h_t.row(0));
                assert_eq!(
                    bits(tape.value(long).data()),
                    bits(inferred.data()),
                    "sequence, {case}"
                );
            }
        }
    }

    #[test]
    fn gaussian_head_outputs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let head = GaussianHead::new(&mut store, "g", 4, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::rand_uniform(1, 4, -1.0, 1.0, &mut rng));
        let (mu, logvar) = head.forward(&mut tape, &store, x);
        assert_eq!(tape.value(mu).shape(), (1, 2));
        assert_eq!(tape.value(logvar).shape(), (1, 2));
        assert_eq!(head.latent_dim(), 2);
    }
}
