//! Reverse-mode automatic differentiation tape.
//!
//! Operations execute eagerly as they are recorded, so every node's value is
//! available immediately (`Tape::value`). Calling [`Tape::backward`] walks
//! the tape once in reverse and adds every parameter gradient straight
//! into the [`ParamStore`].
//!
//! The op set is exactly what the paper's models need: dense matmuls (plus
//! the `A·Bᵀ` variant used for projecting onto gathered embedding rows),
//! elementwise nonlinearities, a whole teacher-forced ragged GRU recurrence
//! as one node ([`Tape::gru_sequence`] — the one recurrence every model in
//! the workspace trains through), row/column slicing and concatenation for
//! packed gates and batched sequence training, fused softmax
//! cross-entropy, and a row-wise log-sum-exp for mixture priors.
//!
//! Where a forward has a tape-free twin in [`crate::nn`] — the affine map,
//! the road-constrained subset logits, the GRU gate epilogue — the node
//! takes its value from the [`crate::ops`] kernel the layer's `infer`
//! calls, so the two agree bit for bit by construction.
//!
//! ## Memory discipline
//!
//! A parameter leaf ([`Tape::param`]) holds no value of its own: forward
//! ops read the store's tensor in place, through the shared handle the
//! store keeps it behind, and backward adds the leaf's gradient into the
//! store's as each consumer produces it — no copy of the store, no
//! per-leaf gradient buffer. Backward then lets go of the handles, so the
//! optimiser step writes the values in place. Every other forward value
//! and every backward gradient is drawn from an internal [`TensorPool`]
//! that survives [`Tape::reset`]: once the passes have taken the largest
//! buffer of each size class, training performs no heap allocation on the
//! tape, and the pool holds about one pass's working set of activations
//! and gradients. Matmul gradients route through the
//! transpose-aware kernels ([`Tensor::matmul_t_into`],
//! [`Tensor::matmul_tn_into`]) instead of materialising `transpose()`
//! copies, and the recurrence node's per-pass state (the recurrent weight
//! packed once for the forward and once, transposed, for the backward; its
//! gate cache; the stacks behind its single `dU` product) is pooled too.
//!
//! ## Fused ops and their references
//!
//! A fused op is proven against the composition it replaces. The
//! recurrence is a two-link chain, both links bit for bit, gradients
//! included: [`Tape::gru_sequence`] against one fused step node
//! (`gru_step_pregated`) per step joined by [`Tape::select_rows`] and a
//! row concatenation (`concat_rows`) — the node's doc lists the two
//! evaluation orders it keeps for that — and the fused step against the
//! ~18 primitive ops of [`crate::nn::BoundGru::step_unfused`]. The step
//! node, the row concatenation and the link tests are test code
//! (`tape/reference.rs`, `gru_sequence.rs`, `tape::tests`), so the
//! shipped tape holds only what training records.

use std::ops::Deref;
use std::sync::Arc;

use crate::ops::{self, add_bias_rows};
use crate::params::{ParamId, ParamStore};
use crate::pool::TensorPool;
use crate::tensor::{PackedRhs, Tensor};

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(u32);

impl Var {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The recorded operation of one tape node.
#[derive(Debug)]
enum Op {
    /// Constant input; receives no gradient.
    Input,
    /// Leaf reading a whole parameter tensor in place (its value is
    /// [`Value::Param`]); its gradient goes straight into the store's.
    Param(ParamId),
    /// Leaf referencing a subset of a parameter's rows (embedding lookup).
    GatherRows {
        param: ParamId,
        ids: Vec<u32>,
    },
    /// Leaf referencing a subset of a parameter's columns (bias subset for
    /// class-restricted projections).
    GatherCols {
        param: ParamId,
        ids: Vec<u32>,
    },
    /// `C = A · B`.
    MatMul(Var, Var),
    /// `C = A · Bᵀ`.
    MatMulT(Var, Var),
    /// Elementwise `a + b`; if `b` has one row it broadcasts across `a`'s rows.
    Add(Var, Var),
    /// Elementwise `a - b` (exact shapes).
    Sub(Var, Var),
    /// Elementwise `a * b` (exact shapes).
    Mul(Var, Var),
    /// `a + c` elementwise with a scalar constant (the constant has zero
    /// gradient, so it is not stored).
    AddScalar(Var),
    /// `c * a` elementwise with a scalar constant.
    Scale(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    /// Test code ([`reference`]): one GRU step consuming precomputed input
    /// gates — rows `[start, start + h.rows)` of `gx` already hold
    /// `x·W + b`. `aux` is a GRU gate cache (see [`gru_aux`]).
    #[cfg(test)]
    GruStepPregated {
        gx: Var,
        start: usize,
        h: Var,
        u: Var,
    },
    /// A whole ragged GRU recurrence over precomputed input gates: the
    /// value is the time-major stack of every step's hidden rows, `aux`
    /// the matching rows' gate cache (see [`gru_aux`]).
    GruSequence {
        gx: Var,
        h0: Var,
        u: Var,
        plan: GruPlan,
    },
    /// Fused affine projection `x·W + b` (`transposed = false`, `W: in x
    /// out`) or `x·Wᵀ + b` (`transposed = true`, `W: out x in`), with the
    /// bias added in place — no separate broadcast-add node or full-size
    /// gradient copy.
    Linear {
        x: Var,
        w: Var,
        b: Var,
        transposed: bool,
    },
    /// Horizontal concatenation `[a | b]` (same number of rows).
    ConcatCols(Var, Var),
    /// Test code ([`reference`]): vertical concatenation of several nodes
    /// (same number of columns).
    #[cfg(test)]
    ConcatRows(Vec<Var>),
    /// Columns `[start, start+len)` of `a`.
    SliceCols {
        src: Var,
        start: usize,
        len: usize,
    },
    /// Row gather from another node (batch shrinking / regrouping);
    /// rows may repeat. Gradients scatter-add back.
    SelectRows {
        src: Var,
        ids: Vec<u32>,
    },
    /// Sum of all elements, producing a `1 x 1` scalar.
    SumAll(Var),
    /// Fused softmax + cross-entropy, summed over rows, producing `1 x 1`.
    /// `aux` caches the softmax probabilities for the backward pass.
    SoftmaxCrossEntropy {
        logits: Var,
        targets: Vec<u32>,
    },
    /// Grouped class-subset projection + softmax cross-entropy against a
    /// row-major (`out x in`) weight parameter and its bias, summed over
    /// rows (`1 x 1`): row `i` of `x` is scored against weight rows
    /// `cands[offsets[i]..offsets[i+1]]`, with `targets[i]` indexing into
    /// that span. One node covers every transition of a batch; `aux`
    /// caches the flattened softmax probabilities.
    SubsetSoftmaxCe {
        x: Var,
        w: ParamId,
        b: ParamId,
        cands: Vec<u32>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
    },
    /// Row-wise `log(sum(exp(x)))`, producing `rows x 1`.
    LogSumExpRows(Var),
    /// Row-major reinterpretation to a new shape with the same element
    /// count.
    Reshape(Var),
}

/// Row bookkeeping of one [`Tape::gru_sequence`] node: step `t` owns rows
/// `starts[t]..starts[t + 1]` of the time-major stacks.
#[derive(Debug)]
struct GruPlan {
    starts: Vec<usize>,
    /// For every stacked row, the row of its previous state: a row of `h0`
    /// during step 0, a row of the previous step's block afterwards.
    prev: Vec<u32>,
}

impl GruPlan {
    /// Checks `schedule` (per step, the strictly ascending `h0` rows still
    /// running, each step a subset of the one before) and resolves every
    /// row's predecessor.
    fn new(schedule: &[Vec<u32>], h0_rows: usize) -> Self {
        let mut starts = Vec::with_capacity(schedule.len() + 1);
        starts.push(0);
        let mut prev = Vec::new();
        let mut before: &[u32] = &[];
        for (t, active) in schedule.iter().enumerate() {
            assert!(!active.is_empty(), "gru_sequence: step {t} has no rows");
            assert!(
                active.windows(2).all(|w| w[0] < w[1]),
                "gru_sequence: step {t} rows must be strictly ascending"
            );
            if t == 0 {
                let last = *active.last().expect("non-empty") as usize;
                assert!(last < h0_rows, "gru_sequence: row {last} out of {h0_rows} initial states");
                prev.extend_from_slice(active);
            } else {
                let mut at = 0;
                for &id in active {
                    while at < before.len() && before[at] < id {
                        at += 1;
                    }
                    assert!(
                        at < before.len() && before[at] == id,
                        "gru_sequence: row {id} of step {t} was not running in step {}",
                        t - 1
                    );
                    prev.push(at as u32);
                }
            }
            before = active;
            starts.push(prev.len());
        }
        GruPlan { starts, prev }
    }

    fn steps(&self) -> usize {
        self.starts.len() - 1
    }

    fn rows(&self, t: usize) -> usize {
        self.starts[t + 1] - self.starts[t]
    }

    /// Whether step `t` reads its previous states straight out of step
    /// `t - 1`'s block (same rows, same order) instead of a gathered subset.
    fn continues(&self, t: usize) -> bool {
        t > 0 && self.rows(t) == self.rows(t - 1)
    }

    /// The widest step: every step is a subset of the one before, so the
    /// first.
    fn max_rows(&self) -> usize {
        self.rows(0)
    }
}

/// A node's value: the tensor its forward op computed, or — for a
/// parameter leaf — the store's own tensor, shared rather than copied.
/// Backward lets go of the store's tensors as it finishes
/// ([`Value::Released`]), so the optimiser step that follows writes them
/// in place.
#[derive(Debug)]
enum Value {
    Computed(Tensor),
    Param(Arc<Tensor>),
    Released,
}

impl Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Computed(t) => t,
            Value::Param(t) => t,
            Value::Released => {
                panic!("parameter leaf read after backward released it: reset and record it again")
            }
        }
    }
}

/// An eager reverse-mode autodiff tape.
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Value>,
    /// Cached forward by-products (`SoftmaxCrossEntropy` probabilities,
    /// GRU gate activations).
    aux: Vec<Option<Tensor>>,
    /// Buffer pool feeding forward values and backward gradients; persists
    /// across [`Tape::reset`] so repeated passes reuse memory.
    pool: TensorPool,
    /// Reusable per-node gradient slots for [`Tape::backward`].
    grad_slots: Vec<Option<Tensor>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            ops: Vec::with_capacity(256),
            values: Vec::with_capacity(256),
            aux: Vec::with_capacity(256),
            pool: TensorPool::new(),
            grad_slots: Vec::new(),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clears all recorded nodes so the tape can be reused. Value and aux
    /// buffers are recycled into the internal pool, so subsequent passes of
    /// the same model allocate nothing.
    pub fn reset(&mut self) {
        self.ops.clear();
        for value in self.values.drain(..) {
            if let Value::Computed(t) = value {
                self.pool.recycle(t);
            }
        }
        for t in self.aux.drain(..).flatten() {
            self.pool.recycle(t);
        }
    }

    /// `(hits, misses)` of the internal buffer pool — a steady-state
    /// training loop stops missing after its first tape pass.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.hits(), self.pool.misses())
    }

    /// The value computed at `v`.
    ///
    /// # Panics
    /// Panics for a parameter leaf once [`Tape::backward`] has let go of
    /// it.
    #[inline]
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.index()]
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.push_with_aux(op, value, None)
    }

    fn push_with_aux(&mut self, op: Op, value: Tensor, aux: Option<Tensor>) -> Var {
        self.push_value(op, Value::Computed(value), aux)
    }

    fn push_value(&mut self, op: Op, value: Value, aux: Option<Tensor>) -> Var {
        let id = Var(self.ops.len() as u32);
        self.ops.push(op);
        self.values.push(value);
        self.aux.push(aux);
        id
    }

    // ----- leaves ---------------------------------------------------------

    /// Records a constant input (no gradient flows into it).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(Op::Input, value)
    }

    /// Records a `1 x 1` scalar constant.
    pub fn scalar(&mut self, x: f32) -> Var {
        let v = self.pool.take_full(1, 1, x);
        self.push(Op::Input, v)
    }

    /// Records a parameter leaf that reads the store's tensor in place:
    /// nothing is copied and nothing is taken from the pool. Backward adds
    /// the leaf's gradient straight into `store`'s, and then lets go of the
    /// tensor, so read the leaf's value before [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push_value(Op::Param(id), Value::Param(store.shared_value(id)), None)
    }

    /// Records an embedding lookup: rows `ids` of parameter `id`.
    /// Gradients are scatter-added back into exactly those rows.
    pub fn gather_rows(&mut self, store: &ParamStore, id: ParamId, ids: &[u32]) -> Var {
        let src = store.value(id);
        let mut out = self.pool.take_scratch(ids.len(), src.cols());
        for (i, &row_id) in ids.iter().enumerate() {
            let row_id = row_id as usize;
            assert!(row_id < src.rows(), "gather_rows: row {row_id} out of {}", src.rows());
            out.row_mut(i).copy_from_slice(src.row(row_id));
        }
        self.push(Op::GatherRows { param: id, ids: ids.to_vec() }, out)
    }

    /// Records a column-subset lookup of parameter `id`: output has the same
    /// number of rows and one column per entry of `ids`. Gradients are
    /// scatter-added back into exactly those columns.
    pub(crate) fn gather_cols(&mut self, store: &ParamStore, id: ParamId, ids: &[u32]) -> Var {
        let src = store.value(id);
        let rows = src.rows();
        let mut out = self.pool.take_scratch(rows, ids.len());
        for (i, &c) in ids.iter().enumerate() {
            let c = c as usize;
            assert!(c < src.cols(), "gather_cols: column {c} out of {}", src.cols());
            for r in 0..rows {
                out.set(r, i, src.get(r, c));
            }
        }
        self.push(Op::GatherCols { param: id, ids: ids.to_vec() }, out)
    }

    // ----- linear algebra -------------------------------------------------

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let m = self.value(a).rows();
        let n = self.value(b).cols();
        let mut out = self.pool.take_scratch(m, n);
        self.values[a.index()].matmul_into(&self.values[b.index()], &mut out);
        self.push(Op::MatMul(a, b), out)
    }

    /// `a · bᵀ`.
    pub(crate) fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let m = self.value(a).rows();
        let n = self.value(b).rows();
        let mut out = self.pool.take_scratch(m, n);
        self.values[a.index()].matmul_t_into(&self.values[b.index()], &mut out);
        self.push(Op::MatMulT(a, b), out)
    }

    /// Elementwise addition. When `b` is a single row and `a` has several,
    /// `b` is broadcast across `a`'s rows (bias addition).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(ac, bc, "add: column mismatch {ac} vs {bc}");
        assert!(br == ar || br == 1, "add: row mismatch {ar} vs {br}");
        let mut out = self.pool.take_copy(&self.values[a.index()]);
        let b_val = &self.values[b.index()];
        if br == ar {
            out.add_assign(b_val);
        } else {
            add_bias_rows(out.data_mut(), b_val);
        }
        self.push(Op::Add(a, b), out)
    }

    /// Elementwise subtraction (shapes must match exactly).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "sub: shape mismatch");
        let mut out = self.pool.take_copy(&self.values[a.index()]);
        out.add_scaled(&self.values[b.index()], -1.0);
        self.push(Op::Sub(a, b), out)
    }

    /// Elementwise product (shapes must match exactly).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "mul: shape mismatch");
        let (r, c) = self.value(a).shape();
        let mut out = self.pool.take_scratch(r, c);
        for ((o, &x), &y) in out
            .data_mut()
            .iter_mut()
            .zip(self.values[a.index()].data())
            .zip(self.values[b.index()].data())
        {
            *o = x * y;
        }
        self.push(Op::Mul(a, b), out)
    }

    /// `a + c` with a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let out = self.pooled_map(a, |x| x + c);
        self.push(Op::AddScalar(a), out)
    }

    /// `c * a` with a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let out = self.pooled_map(a, |x| c * x);
        self.push(Op::Scale(a, c), out)
    }

    /// Elementwise map of `a`'s value into a pooled tensor.
    fn pooled_map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let (r, c) = self.value(a).shape();
        let mut out = self.pool.take_scratch(r, c);
        for (o, &x) in out.data_mut().iter_mut().zip(self.values[a.index()].data()) {
            *o = f(x);
        }
        out
    }

    // ----- nonlinearities ---------------------------------------------------

    /// Elementwise logistic sigmoid (vectorised
    /// [`crate::math::fast_sigmoid`], absolute error < 1e-6).
    pub(crate) fn sigmoid(&mut self, a: Var) -> Var {
        let out = self.pooled_map(a, crate::math::fast_sigmoid);
        self.push(Op::Sigmoid(a), out)
    }

    /// Elementwise hyperbolic tangent (vectorised
    /// [`crate::math::fast_tanh`], absolute error < 1e-6).
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.pooled_map(a, crate::math::fast_tanh);
        self.push(Op::Tanh(a), out)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let out = self.pooled_map(a, |x| x.max(0.0));
        self.push(Op::Relu(a), out)
    }

    /// Elementwise exponential (vectorised [`crate::math::fast_exp`],
    /// relative error ~1e-7).
    pub fn exp(&mut self, a: Var) -> Var {
        let out = self.pooled_map(a, crate::math::fast_exp);
        self.push(Op::Exp(a), out)
    }

    // ----- recurrence -------------------------------------------------------

    /// A whole ragged, teacher-forced GRU recurrence as **one** node.
    ///
    /// `schedule[t]` lists, strictly ascending, the rows of `h0` (the
    /// sequences) still running at step `t`; every step must be a subset of
    /// the one before. `gx_all` holds the precomputed input gates
    /// `x·W + b` of every (step, sequence) pair, time-major — step `t`'s
    /// rows in `schedule[t]` order, after all rows of earlier steps — and
    /// the result stacks the new hidden rows the same way
    /// (`Σ_t schedule[t].len()` rows), ready for heads that batch over
    /// every transition of the batch.
    ///
    /// Teacher forcing means every input is known before the recurrence
    /// starts, which is what lets the node own its per-pass state instead
    /// of re-deriving it every step: forward packs `U` into the matmul
    /// panel layout **once** ([`PackedRhs`]), gathers a shrinking step's
    /// surviving rows into one small scratch, and writes each new row
    /// straight into the stacked result; backward packs `Uᵀ` once, runs
    /// BPTT inside the node in place on the incoming gradient, writes each
    /// input-gate gradient row once, and computes `dU` as a **single**
    /// `Aᵀ·B` product over all steps' rows. All scratch is pooled.
    ///
    /// Values and gradients are bit for bit those of the per-step
    /// composition it replaces — one fused step node per step,
    /// [`Tape::select_rows`] wherever a step shrinks, a row concatenation
    /// over the steps — which the crate's tests keep as the reference
    /// this node is proven against. Two orders are replicated for that:
    /// a step that did not shrink continues its `dgh·Uᵀ` chains from the
    /// previous block's head gradient plus the direct `g⊙z` term, in
    /// place, while a step that shrank (and step 0) starts them from
    /// `g⊙z` alone and adds the finished rows into the kept rows' head
    /// gradient afterwards; and the `dU` stacks are filled in processing
    /// order (last step first), the order the per-step accumulation
    /// visited them in.
    ///
    /// # Panics
    /// Panics on an empty or inconsistent schedule, or mismatched shapes.
    pub fn gru_sequence(&mut self, gx_all: Var, h0: Var, u: Var, schedule: &[Vec<u32>]) -> Var {
        let (h0_rows, hd) = self.value(h0).shape();
        let plan = GruPlan::new(schedule, h0_rows);
        let total = plan.prev.len();
        assert!(total > 0 && hd > 0, "gru_sequence: empty schedule or state");
        assert_eq!(self.value(gx_all).shape(), (total, 3 * hd), "gru_sequence: gx shape");
        assert_eq!(self.value(u).shape(), (hd, 3 * hd), "gru_sequence: U shape");

        let (pr, pc) = PackedRhs::storage_shape(hd, 3 * hd);
        let packed_u = PackedRhs::pack(&self.values[u.index()], self.pool.take_scratch(pr, pc));
        let mut h_all = self.pool.take_scratch(total, hd);
        let mut cache = self.pool.take_scratch(total, 4 * hd);
        let (gates, n_all) = cache.data_mut().split_at_mut(total * 3 * hd);
        let mut gathered = self.pool.take_scratch(plan.max_rows(), hd);
        let gx = &self.values[gx_all.index()];
        let h0v = &self.values[h0.index()];
        for t in 0..plan.steps() {
            let (start, rows) = (plan.starts[t], plan.rows(t));
            let (done, new_rows) = h_all.data_mut().split_at_mut(start * hd);
            let prev_block = if t == 0 { h0v.data() } else { &done[plan.starts[t - 1] * hd..] };
            let h_prev = if plan.continues(t) {
                prev_block
            } else {
                let ids = &plan.prev[start..start + rows];
                for (dst, &id) in gathered.data_mut().chunks_exact_mut(hd).zip(ids) {
                    dst.copy_from_slice(&prev_block[id as usize * hd..(id as usize + 1) * hd]);
                }
                &gathered.data()[..rows * hd]
            };
            let gh = &mut gates[start * 3 * hd..(start + rows) * 3 * hd];
            packed_u.matmul_into(h_prev, gh);
            let n_rows = n_all[start * hd..(start + rows) * hd].chunks_exact_mut(hd);
            let rows = gh.chunks_exact_mut(3 * hd).zip(h_prev.chunks_exact(hd)).zip(n_rows);
            for (r, ((gh, h), n)) in rows.enumerate() {
                let out = &mut new_rows[r * hd..(r + 1) * hd];
                ops::gru_gates(gx.row(start + r), gh, h, out, Some(n));
            }
        }
        self.pool.recycle(packed_u.into_storage());
        self.pool.recycle(gathered);
        self.push_with_aux(Op::GruSequence { gx: gx_all, h0, u, plan }, h_all, Some(cache))
    }

    /// Fused affine projection: `x·W + b` (`transposed = false`, `W` is
    /// `in x out`) or `x·Wᵀ + b` (`transposed = true`, `W` is `out x in`,
    /// one contiguous row per output class). The bias lands in the matmul
    /// output in place, so there is no broadcast-add node and no full-size
    /// gradient copy in backward. The value is [`ops::linear`], the kernel
    /// of [`crate::nn::Linear::infer`].
    pub fn linear(&mut self, x: Var, w: Var, b: Var, transposed: bool) -> Var {
        let (m, k) = self.value(x).shape();
        let (wr, wc) = self.value(w).shape();
        let out_dim = if transposed {
            assert_eq!(wc, k, "linear: transposed weight inner dim {wc} vs {k}");
            wr
        } else {
            assert_eq!(wr, k, "linear: weight inner dim {wr} vs {k}");
            wc
        };
        assert_eq!(self.value(b).shape(), (1, out_dim), "linear: bias shape");
        let mut out = self.pool.take_scratch(m, out_dim);
        let v = &self.values;
        ops::linear(v[x.index()].data(), &v[w.index()], &v[b.index()], transposed, out.data_mut());
        self.push(Op::Linear { x, w, b, transposed }, out)
    }

    // ----- shape ops --------------------------------------------------------

    /// `[a | b]` concatenated along columns.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (rows, ac) = self.value(a).shape();
        let bc = self.value(b).cols();
        assert_eq!(rows, self.value(b).rows(), "concat_cols: row mismatch");
        let mut out = self.pool.take_scratch(rows, ac + bc);
        for r in 0..rows {
            let row = out.row_mut(r);
            row[..ac].copy_from_slice(self.values[a.index()].row(r));
            row[ac..].copy_from_slice(self.values[b.index()].row(r));
        }
        self.push(Op::ConcatCols(a, b), out)
    }

    /// Columns `[start, start + len)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert!(start + len <= cols, "slice_cols out of range");
        let mut out = self.pool.take_scratch(rows, len);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&self.values[a.index()].row(r)[start..start + len]);
        }
        self.push(Op::SliceCols { src: a, start, len }, out)
    }

    /// Gathers rows `ids` of node `src` (rows may repeat, order is free).
    /// This is the batching workhorse: shrinking the active row set
    /// when trajectories end, and regrouping prediction rows that share a
    /// candidate set. Gradients scatter-add back into `src`.
    pub fn select_rows(&mut self, src: Var, ids: &[u32]) -> Var {
        let (rows, cols) = self.value(src).shape();
        let mut out = self.pool.take_scratch(ids.len(), cols);
        for (i, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < rows, "select_rows: row {id} out of {rows}");
            out.row_mut(i).copy_from_slice(self.values[src.index()].row(id));
        }
        self.push(Op::SelectRows { src, ids: ids.to_vec() }, out)
    }

    /// Reinterprets `a`'s row-major data as a `rows x cols` tensor.
    ///
    /// # Panics
    /// Panics when the element count changes.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        assert_eq!(self.value(a).len(), rows * cols, "reshape: element count mismatch");
        let mut out = self.pool.take_scratch(rows, cols);
        out.data_mut().copy_from_slice(self.values[a.index()].data());
        self.push(Op::Reshape(a), out)
    }

    // ----- reductions -------------------------------------------------------

    /// Sum of all elements (`1 x 1`).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum() as f32;
        let out = self.pool.take_full(1, 1, s);
        self.push(Op::SumAll(a), out)
    }

    /// Row-wise `log(sum_j exp(x_ij)))`, producing a `rows x 1` column.
    /// Numerically stabilised by subtracting the row max.
    pub fn logsumexp_rows(&mut self, a: Var) -> Var {
        let rows = self.value(a).rows();
        let mut out = self.pool.take_scratch(rows, 1);
        for r in 0..rows {
            let lse = logsumexp(self.values[a.index()].row(r));
            out.set(r, 0, lse);
        }
        self.push(Op::LogSumExpRows(a), out)
    }

    /// Fused softmax + cross-entropy loss, summed over rows (`1 x 1`).
    ///
    /// `targets[r]` is the class index for row `r` of `logits`. The softmax
    /// probabilities are cached for the backward pass (never recomputed).
    ///
    /// One [`crate::math::fast_exp`] per element (numerically stabilised by
    /// the row max, summed in `f64`, normalised by the reciprocal) replaces
    /// the two `libm` exponentials of the naive `logsumexp`-then-softmax
    /// formulation — the full-vocab heads make this the single largest
    /// training node. Values match the `std` formulation within fast-math
    /// tolerance (~3e-7 relative).
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let (rows, cols) = self.value(logits).shape();
        assert_eq!(rows, targets.len(), "softmax_ce: row/target mismatch");
        let mut probs = self.pool.take_scratch(rows, cols);
        let mut loss = 0.0f64;
        {
            let lv = &self.values[logits.index()];
            for (r, &target) in targets.iter().enumerate() {
                let row = lv.row(r);
                let t = target as usize;
                assert!(t < cols, "softmax_ce: target {t} out of {cols} classes");
                let max = fold_max(row);
                let p_row = probs.row_mut(r);
                let sum = stable_exp_sum_into(row, max, p_row);
                let lse = max + (sum as f32).ln();
                loss += (lse - row[t]) as f64;
                let inv = (1.0 / sum) as f32;
                for p in p_row.iter_mut() {
                    *p *= inv;
                }
            }
        }
        let out = self.pool.take_full(1, 1, loss as f32);
        self.push_with_aux(
            Op::SoftmaxCrossEntropy { logits, targets: targets.to_vec() },
            out,
            Some(probs),
        )
    }

    /// Grouped class-subset softmax cross-entropy, summed over rows
    /// (`1 x 1`).
    ///
    /// Row `i` of `x` (`rows x in`) is projected onto the weight rows
    /// `cands[offsets[i]..offsets[i+1]]` of the row-major parameter `w`
    /// (`out x in`) plus the matching entries of bias `b` (`1 x out`), and
    /// scored by a stabilised softmax CE against `targets[i]` (an index
    /// *within* the row's candidate span).
    ///
    /// This is the road-constrained decoder head as **one** tape node:
    /// candidate sets are tiny (a handful of successors), so the composed
    /// per-group formulation (row gather, weight gather, matmul, bias
    /// gather, add, CE) drowned in per-node bookkeeping. The fused backward
    /// scatter-adds straight into the parameter gradients. Each span's
    /// logits are [`ops::subset_logits`], the kernel tape-free scoring
    /// calls ([`crate::nn::Linear::infer_subset_row`]). Per-row NLLs are
    /// bit-identical to the composed ops (same ascending-`k` dot, same
    /// stabilised softmax); only the final summation order differs (one
    /// `f64` accumulation instead of an f32 add chain).
    #[allow(clippy::too_many_arguments)]
    pub fn subset_softmax_ce(
        &mut self,
        store: &ParamStore,
        x: Var,
        w: ParamId,
        b: ParamId,
        cands: &[u32],
        offsets: &[u32],
        targets: &[u32],
    ) -> Var {
        let (rows, in_dim) = self.value(x).shape();
        assert!(rows > 0, "subset_ce: needs at least one row");
        assert_eq!(offsets.len(), rows + 1, "subset_ce: offsets length");
        assert_eq!(targets.len(), rows, "subset_ce: targets length");
        let wv = store.value(w);
        let bv = store.value(b);
        assert_eq!(wv.cols(), in_dim, "subset_ce: weight must be row-major out x in");
        assert_eq!(bv.shape(), (1, wv.rows()), "subset_ce: bias shape");
        assert_eq!(offsets[0], 0, "subset_ce: offsets must start at 0");
        assert_eq!(offsets[rows] as usize, cands.len(), "subset_ce: offsets must cover cands");

        let mut probs = self.pool.take_scratch(1, cands.len());
        let mut loss = 0.0f64;
        {
            let xv = &self.values[x.index()];
            let flat = probs.data_mut();
            for i in 0..rows {
                let span = offsets[i] as usize..offsets[i + 1] as usize;
                let width = span.len();
                assert!(width > 0, "subset_ce: empty candidate span at row {i}");
                let t = targets[i] as usize;
                assert!(t < width, "subset_ce: target {t} out of span {width}");
                let logits = &mut flat[span.clone()];
                ops::subset_logits(wv, bv, xv.row(i), &cands[span], logits);
                let max = logits.iter().fold(f32::NEG_INFINITY, |m, &l| m.max(l));
                let target_logit = logits[t];
                let mut sum = 0.0f64;
                for p in logits.iter_mut() {
                    let e = crate::math::fast_exp(*p - max);
                    *p = e;
                    sum += e as f64;
                }
                let lse = max + (sum as f32).ln();
                loss += (lse - target_logit) as f64;
                let inv = (1.0 / sum) as f32;
                for p in logits.iter_mut() {
                    *p *= inv;
                }
            }
        }
        let out = self.pool.take_full(1, 1, loss as f32);
        self.push_with_aux(
            Op::SubsetSoftmaxCe {
                x,
                w,
                b,
                cands: cands.to_vec(),
                offsets: offsets.to_vec(),
                targets: targets.to_vec(),
            },
            out,
            Some(probs),
        )
    }

    // ----- composite helpers ----------------------------------------------

    /// KL divergence `KL(N(mu, diag(exp(logvar))) || N(0, I))`, summed over
    /// all elements, as a `1 x 1` scalar:
    /// `-0.5 * sum(1 + logvar - mu^2 - exp(logvar))`.
    pub fn kl_std_normal(&mut self, mu: Var, logvar: Var) -> Var {
        let mu_sq = self.mul(mu, mu);
        let var = self.exp(logvar);
        let t1 = self.add_scalar(logvar, 1.0);
        let t2 = self.sub(t1, mu_sq);
        let t3 = self.sub(t2, var);
        let s = self.sum_all(t3);
        self.scale(s, -0.5)
    }

    /// Reparameterised Gaussian sample `mu + exp(0.5 * logvar) * eps` where
    /// `eps` is an externally drawn standard-normal tensor.
    pub fn gaussian_sample(&mut self, mu: Var, logvar: Var, eps: Tensor) -> Var {
        assert_eq!(self.value(mu).shape(), eps.shape(), "gaussian_sample: eps shape");
        let half = self.scale(logvar, 0.5);
        let std = self.exp(half);
        let e = self.input(eps);
        let noise = self.mul(std, e);
        self.add(mu, noise)
    }

    // ----- backward ---------------------------------------------------------

    /// Runs the backward pass from scalar node `loss`, adding each
    /// parameter gradient into `store`'s as it is produced. All
    /// intermediate gradient buffers come from (and return to) the tape's
    /// pool. Parameter leaves let go of the store's tensors when it
    /// returns; a second backward over the same nodes reads the store's
    /// tensors again.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward: loss must be scalar");
        let n = loss.index() + 1;
        let Tape { ops, values, aux, pool, grad_slots } = self;
        // A second backward over the same nodes reads the store's
        // tensors again.
        for (op, value) in ops.iter().zip(values.iter_mut()) {
            if let (Op::Param(id), Value::Released) = (op, &*value) {
                *value = Value::Param(store.shared_value(*id));
            }
        }
        grad_slots.clear();
        grad_slots.resize_with(n, || None);
        grad_slots[loss.index()] = Some(pool.take_full(1, 1, 1.0));
        let mut grads = Grads { ops, slots: grad_slots, store };

        for idx in (0..n).rev() {
            let Some(mut g) = grads.slots[idx].take() else { continue };
            match &ops[idx] {
                Op::Input => pool.recycle(g),
                Op::Param(_) => unreachable!("a parameter leaf's gradient goes to the store"),
                Op::GatherRows { param, ids } => {
                    let gp = grads.store.grad_mut(*param);
                    for (i, &row_id) in ids.iter().enumerate() {
                        let dst = gp.row_mut(row_id as usize);
                        for (d, &x) in dst.iter_mut().zip(g.row(i)) {
                            *d += x;
                        }
                    }
                    pool.recycle(g);
                }
                Op::GatherCols { param, ids } => {
                    let gp = grads.store.grad_mut(*param);
                    for (i, &col_id) in ids.iter().enumerate() {
                        let c = col_id as usize;
                        for r in 0..g.rows() {
                            let cur = gp.get(r, c);
                            gp.set(r, c, cur + g.get(r, i));
                        }
                    }
                    pool.recycle(g);
                }
                Op::MatMul(a, b) => {
                    // dA += g · Bᵀ ; dB += Aᵀ · g — both through the
                    // transpose-aware kernels, no transposed copies.
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    let mut da = pool.take_scratch(g.rows(), bv.rows());
                    g.matmul_t_into(bv, &mut da);
                    let mut db = pool.take_scratch(av.cols(), g.cols());
                    av.matmul_tn_into(&g, &mut db);
                    grads.add(pool, *a, da);
                    grads.add(pool, *b, db);
                    pool.recycle(g);
                }
                Op::MatMulT(a, b) => {
                    // C = A·Bᵀ : dA += g · B ; dB += gᵀ · A
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    let mut da = pool.take_scratch(g.rows(), bv.cols());
                    g.matmul_into(bv, &mut da);
                    let mut db = pool.take_scratch(g.cols(), av.cols());
                    g.matmul_tn_into(av, &mut db);
                    grads.add(pool, *a, da);
                    grads.add(pool, *b, db);
                    pool.recycle(g);
                }
                Op::Add(a, b) => {
                    let ar = values[a.index()].rows();
                    let (br, bc) = values[b.index()].shape();
                    if br == ar {
                        let db = pool.take_copy(&g);
                        grads.add(pool, *b, db);
                    } else {
                        // Broadcast bias: sum gradient over rows.
                        let mut db = pool.take_zeroed(1, bc);
                        for r in 0..g.rows() {
                            for (d, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                                *d += x;
                            }
                        }
                        grads.add(pool, *b, db);
                    }
                    grads.add(pool, *a, g);
                }
                Op::Sub(a, b) => {
                    let mut db = pool.take_scratch(g.rows(), g.cols());
                    for (d, &x) in db.data_mut().iter_mut().zip(g.data()) {
                        *d = -x;
                    }
                    grads.add(pool, *b, db);
                    grads.add(pool, *a, g);
                }
                Op::Mul(a, b) => {
                    let mut da = pool.take_scratch(g.rows(), g.cols());
                    for ((d, &x), &y) in
                        da.data_mut().iter_mut().zip(g.data()).zip(values[b.index()].data())
                    {
                        *d = x * y;
                    }
                    // Reuse g in place for dB = g * A.
                    for (x, &y) in g.data_mut().iter_mut().zip(values[a.index()].data()) {
                        *x *= y;
                    }
                    grads.add(pool, *a, da);
                    grads.add(pool, *b, g);
                }
                Op::AddScalar(a) => grads.add(pool, *a, g),
                Op::Scale(a, c) => {
                    for x in g.data_mut() {
                        *x *= c;
                    }
                    grads.add(pool, *a, g);
                }
                Op::Sigmoid(a) => {
                    for (x, &y) in g.data_mut().iter_mut().zip(values[idx].data()) {
                        *x = *x * y * (1.0 - y);
                    }
                    grads.add(pool, *a, g);
                }
                Op::Tanh(a) => {
                    for (x, &y) in g.data_mut().iter_mut().zip(values[idx].data()) {
                        *x *= 1.0 - y * y;
                    }
                    grads.add(pool, *a, g);
                }
                Op::Relu(a) => {
                    for (x, &y) in g.data_mut().iter_mut().zip(values[idx].data()) {
                        if y <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    grads.add(pool, *a, g);
                }
                Op::Exp(a) => {
                    for (x, &y) in g.data_mut().iter_mut().zip(values[idx].data()) {
                        *x *= y;
                    }
                    grads.add(pool, *a, g);
                }
                #[cfg(test)]
                op @ (Op::GruStepPregated { .. } | Op::ConcatRows(_)) => {
                    reference::backward(op, values, aux, pool, &mut grads, idx, g);
                }
                Op::GruSequence { gx, h0, u, plan } => {
                    gru_sequence_backward(
                        values, aux, pool, &mut grads, idx, g, *gx, *h0, *u, plan,
                    );
                }
                Op::Linear { x, w, b, transposed } => {
                    let xv = &values[x.index()];
                    let wv = &values[w.index()];
                    // db = column sums of g.
                    let bc = values[b.index()].cols();
                    let mut db = pool.take_zeroed(1, bc);
                    for r in 0..g.rows() {
                        for (d, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                            *d += v;
                        }
                    }
                    let mut dw = pool.take_scratch(wv.rows(), wv.cols());
                    let dx = if *transposed {
                        // y = x·Wᵀ: dx = g·W ; dW = gᵀ·x
                        let mut d = pool.take_scratch(g.rows(), wv.cols());
                        g.matmul_into(wv, &mut d);
                        g.matmul_tn_into(xv, &mut dw);
                        d
                    } else {
                        // y = x·W: dx = g·Wᵀ ; dW = xᵀ·g
                        let mut d = pool.take_scratch(g.rows(), wv.rows());
                        g.matmul_t_into(wv, &mut d);
                        xv.matmul_tn_into(&g, &mut dw);
                        d
                    };
                    grads.add(pool, *x, dx);
                    grads.add(pool, *w, dw);
                    grads.add(pool, *b, db);
                    pool.recycle(g);
                }
                Op::ConcatCols(a, b) => {
                    let (rows, ac) = values[a.index()].shape();
                    let bc = values[b.index()].cols();
                    let mut da = pool.take_scratch(rows, ac);
                    let mut db = pool.take_scratch(rows, bc);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    grads.add(pool, *a, da);
                    grads.add(pool, *b, db);
                    pool.recycle(g);
                }
                Op::SliceCols { src, start, len } => {
                    let (rows, cols) = values[src.index()].shape();
                    let mut da = pool.take_zeroed(rows, cols);
                    for r in 0..rows {
                        da.row_mut(r)[*start..start + len].copy_from_slice(g.row(r));
                    }
                    grads.add(pool, *src, da);
                    pool.recycle(g);
                }
                Op::SelectRows { src, ids } => {
                    let (rows, cols) = values[src.index()].shape();
                    let mut da = pool.take_zeroed(rows, cols);
                    for (i, &id) in ids.iter().enumerate() {
                        for (d, &x) in da.row_mut(id as usize).iter_mut().zip(g.row(i)) {
                            *d += x;
                        }
                    }
                    grads.add(pool, *src, da);
                    pool.recycle(g);
                }
                Op::SumAll(a) => {
                    let gv = g.get(0, 0);
                    let (r, c) = values[a.index()].shape();
                    let da = pool.take_full(r, c, gv);
                    grads.add(pool, *a, da);
                    pool.recycle(g);
                }
                Op::SoftmaxCrossEntropy { logits, targets } => {
                    let gv = g.get(0, 0);
                    let probs = aux[idx].as_ref().expect("ce aux missing");
                    let mut da = pool.take_scratch(probs.rows(), probs.cols());
                    for (d, &p) in da.data_mut().iter_mut().zip(probs.data()) {
                        *d = p * gv;
                    }
                    for (r, &t) in targets.iter().enumerate() {
                        let p = probs.get(r, t as usize);
                        da.row_mut(r)[t as usize] = (p - 1.0) * gv;
                    }
                    grads.add(pool, *logits, da);
                    pool.recycle(g);
                }
                Op::SubsetSoftmaxCe { x, w, b, cands, offsets, targets } => {
                    let gv = g.get(0, 0);
                    let probs = aux[idx].as_ref().expect("subset ce aux missing");
                    let xv = &values[x.index()];
                    let (rows, in_dim) = xv.shape();
                    // dlogits (flattened) = (p - onehot) * gv.
                    let mut dl = pool.take_scratch(1, cands.len());
                    for (d, &p) in dl.data_mut().iter_mut().zip(probs.data()) {
                        *d = p * gv;
                    }
                    for (i, &t) in targets.iter().enumerate() {
                        let at = offsets[i] as usize + t as usize;
                        dl.data_mut()[at] = (probs.data()[at] - 1.0) * gv;
                    }
                    // dx rows + dW scatter share one pass over the spans.
                    let mut dx = pool.take_zeroed(rows, in_dim);
                    {
                        let (wv, wg) = grads.store.value_and_grad_mut(*w);
                        for i in 0..rows {
                            let span = offsets[i] as usize..offsets[i + 1] as usize;
                            let x_row = xv.row(i);
                            let dx_row = dx.row_mut(i);
                            for (&c, &d) in cands[span.clone()].iter().zip(&dl.data()[span]) {
                                let w_row = wv.row(c as usize);
                                let g_row = wg.row_mut(c as usize);
                                for k in 0..in_dim {
                                    dx_row[k] = d.mul_add(w_row[k], dx_row[k]);
                                    g_row[k] = d.mul_add(x_row[k], g_row[k]);
                                }
                            }
                        }
                    }
                    {
                        let bg = grads.store.grad_mut(*b);
                        for (&c, &d) in cands.iter().zip(dl.data()) {
                            bg.data_mut()[c as usize] += d;
                        }
                    }
                    grads.add(pool, *x, dx);
                    pool.recycle(dl);
                    pool.recycle(g);
                }
                Op::Reshape(a) => {
                    let (r, c) = values[a.index()].shape();
                    grads.add(pool, *a, Tensor::from_vec(r, c, g.into_data()));
                }
                Op::LogSumExpRows(a) => {
                    let x = &values[a.index()];
                    let (rows, cols) = x.shape();
                    let mut da = pool.take_scratch(rows, cols);
                    for r in 0..rows {
                        let lse = values[idx].get(r, 0);
                        let gr = g.get(r, 0);
                        for (d, &xi) in da.row_mut(r).iter_mut().zip(x.row(r)) {
                            *d = gr * (xi - lse).exp();
                        }
                    }
                    grads.add(pool, *a, da);
                    pool.recycle(g);
                }
            }
        }
        // Let go of the store's tensors: the optimiser step writes them.
        for value in values.iter_mut() {
            if let Value::Param(_) = value {
                *value = Value::Released;
            }
        }
    }
}

/// Where backward sends a node's gradient: its slot on the tape, or — for
/// a parameter leaf — the parameter's gradient in the store, added in
/// place.
struct Grads<'a> {
    ops: &'a [Op],
    slots: &'a mut [Option<Tensor>],
    store: &'a mut ParamStore,
}

impl Grads<'_> {
    /// Adds `g` into the gradient of `v`, recycling `g` unless it becomes
    /// `v`'s slot.
    fn add(&mut self, pool: &mut TensorPool, v: Var, g: Tensor) {
        match (&self.ops[v.index()], &mut self.slots[v.index()]) {
            (Op::Param(id), _) => {
                self.store.grad_mut(*id).add_assign(&g);
                pool.recycle(g);
            }
            (_, Some(existing)) => {
                existing.add_assign(&g);
                pool.recycle(g);
            }
            (_, slot @ None) => *slot = Some(g),
        }
    }
}

/// The gate cache (`aux`) of a GRU node over `rows` rows, `rows x 4h`
/// floats in two blocks: the `[z | r | nh]` rows [`ops::gru_gates`] leaves
/// in place of each row's `h·U`, then each row's `n`.
fn gru_aux(aux: &Option<Tensor>) -> (&[f32], &[f32]) {
    let cache = aux.as_ref().expect("gru aux missing").data();
    cache.split_at(cache.len() / 4 * 3)
}

/// Per-row chain rule of the fused GRU gates, shared by every backward
/// variant (the delicate dn/dz/dr derivation lives once, mirroring
/// [`ops::gru_gates`]): from the row's cached `gates = [z | r | nh]` and
/// `nn = n`, writes the input-gate gradients `dgx_row = [dzx | drx | dnx]`
/// and the recurrent-gate gradients `dgh_row = [dz_in | dr_in | dn_in·r]`,
/// and adds the direct `g⊙z` term into `dh_row`.
fn gru_gate_backward_row(
    gates: &[f32],
    nn: &[f32],
    g_row: &[f32],
    h_row: &[f32],
    dgx_row: &mut [f32],
    dgh_row: &mut [f32],
    dh_row: &mut [f32],
) {
    let hd = h_row.len();
    let (z, rest) = gates.split_at(hd);
    let (rg, nh) = rest.split_at(hd);
    let (dzx, rest) = dgx_row.split_at_mut(hd);
    let (drx, dnx) = rest.split_at_mut(hd);
    let (ghz, rest) = dgh_row.split_at_mut(hd);
    let (ghr, ghn) = rest.split_at_mut(hd);
    for c in 0..hd {
        let gv = g_row[c];
        let zc = z[c];
        let nc = nn[c];
        let rc = rg[c];
        // h' = n + z (h - n)
        let dn = gv * (1.0 - zc);
        let dz = gv * (h_row[c] - nc);
        let dn_in = dn * (1.0 - nc * nc);
        let dz_in = dz * zc * (1.0 - zc);
        let dr = dn_in * nh[c];
        let dr_in = dr * rc * (1.0 - rc);
        dzx[c] = dz_in;
        drx[c] = dr_in;
        dnx[c] = dn_in;
        ghz[c] = dz_in;
        ghr[c] = dr_in;
        ghn[c] = dn_in * rc;
        dh_row[c] += gv * zc;
    }
}

/// Backward of [`Tape::gru_sequence`]: BPTT over the node's own steps,
/// last first, in place on `g` (the gradient of the stacked hidden rows —
/// block `t - 1` of it is exactly the running `dh` step `t` adds into).
/// See the forward's doc for the two orders kept for bit-identity with the
/// per-step composition.
#[allow(clippy::too_many_arguments)]
fn gru_sequence_backward(
    values: &[Value],
    aux: &[Option<Tensor>],
    pool: &mut TensorPool,
    grads: &mut Grads,
    idx: usize,
    mut g: Tensor,
    gx: Var,
    h0: Var,
    u: Var,
    plan: &GruPlan,
) {
    let (gates, nn) = gru_aux(&aux[idx]);
    let h_all = &values[idx];
    let h0v = &values[h0.index()];
    let uv = &values[u.index()];
    let hd = h0v.cols();
    let total = plan.prev.len();

    // `dgh · Uᵀ` is `A·Bᵀ` with `B = U`: pack `U`'s rows transposed once.
    let (pr, pc) = PackedRhs::storage_shape(3 * hd, hd);
    let packed_ut = PackedRhs::pack_transposed(uv, pool.take_scratch(pr, pc));
    let mut dgx = pool.take_scratch(total, 3 * hd);
    // Every step's `dgh` and previous-state rows, in processing order, for
    // the one `dU` product at the end.
    let mut dgh_stack = pool.take_scratch(total, 3 * hd);
    let mut h_stack = pool.take_scratch(total, hd);
    let mut seeded = pool.take_scratch(plan.max_rows(), hd);
    let mut dh0 = pool.take_zeroed(h0v.rows(), hd);
    let mut top = 0;
    for t in (0..plan.steps()).rev() {
        let (start, rows) = (plan.starts[t], plan.rows(t));
        let prev_ids = &plan.prev[start..start + rows];
        let prev_start = if t == 0 { 0 } else { plan.starts[t - 1] };
        let prev_block = if t == 0 { h0v.data() } else { &h_all.data()[prev_start * hd..] };
        let (g_before, g_here) = g.data_mut().split_at_mut(start * hd);
        let dgh = &mut dgh_stack.data_mut()[top * 3 * hd..(top + rows) * 3 * hd];
        let h_prev = &mut h_stack.data_mut()[top * hd..(top + rows) * hd];
        top += rows;
        let in_place = plan.continues(t);
        let dh_prev = if in_place {
            &mut g_before[prev_start * hd..]
        } else {
            let fresh = &mut seeded.data_mut()[..rows * hd];
            fresh.fill(0.0);
            fresh
        };
        for (r, &id) in prev_ids.iter().enumerate() {
            let h_row = &mut h_prev[r * hd..(r + 1) * hd];
            h_row.copy_from_slice(&prev_block[id as usize * hd..(id as usize + 1) * hd]);
            let row = start + r;
            gru_gate_backward_row(
                &gates[row * 3 * hd..(row + 1) * 3 * hd],
                &nn[row * hd..(row + 1) * hd],
                &g_here[r * hd..(r + 1) * hd],
                h_row,
                dgx.row_mut(start + r),
                &mut dgh[r * 3 * hd..(r + 1) * 3 * hd],
                &mut dh_prev[r * hd..(r + 1) * hd],
            );
        }
        packed_ut.matmul_acc_into(dgh, dh_prev);
        if in_place {
            continue;
        }
        let finished = seeded.data()[..rows * hd].chunks_exact(hd);
        if t == 0 {
            for (row, &id) in finished.zip(prev_ids) {
                dh0.row_mut(id as usize).copy_from_slice(row);
            }
        } else {
            let kept = &mut g_before[prev_start * hd..];
            for (row, &id) in finished.zip(prev_ids) {
                let kept_row = &mut kept[id as usize * hd..(id as usize + 1) * hd];
                for (d, &v) in kept_row.iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
    }

    // dU = Σ_t H_prevᵀ · dgh: one product over the stacks continues each
    // element's chain through the steps in the order they were pushed.
    let mut du = pool.take_scratch(uv.rows(), uv.cols());
    h_stack.matmul_tn_into(&dgh_stack, &mut du);
    grads.add(pool, u, du);
    grads.add(pool, gx, dgx);
    grads.add(pool, h0, dh0);
    pool.recycle(packed_ut.into_storage());
    pool.recycle(dgh_stack);
    pool.recycle(h_stack);
    pool.recycle(seeded);
    pool.recycle(g);
}

/// Exact maximum of a slice via 8 parallel lanes. `max` is associative, so
/// the result is identical to a serial fold — the lanes only break the
/// loop-carried dependency so the compiler can vectorise.
fn fold_max(xs: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut chunks = xs.chunks_exact(8);
    for ch in chunks.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(ch) {
            *l = l.max(x);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &x in chunks.remainder() {
        m = m.max(x);
    }
    for &l in &lanes {
        m = m.max(l);
    }
    m
}

/// Writes `fast_exp(x - max)` into `out` and returns the sum of the written
/// values. Two passes so each vectorises: a pure-`f32` exponential sweep,
/// then a 4-lane `f64` reduction (the sum reassociation is inside the CE
/// node's documented fast-math tolerance).
fn stable_exp_sum_into(xs: &[f32], max: f32, out: &mut [f32]) -> f64 {
    debug_assert_eq!(xs.len(), out.len());
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = crate::math::fast_exp(x - max);
    }
    let mut lanes = [0.0f64; 4];
    let mut chunks = out.chunks_exact(4);
    for ch in chunks.by_ref() {
        for (l, &e) in lanes.iter_mut().zip(ch) {
            *l += e as f64;
        }
    }
    for &e in chunks.remainder() {
        lanes[0] += e as f64;
    }
    lanes.iter().sum()
}

/// Numerically stable `log(sum(exp(xs)))` over a slice.
pub fn logsumexp(xs: &[f32]) -> f32 {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f64 = xs.iter().map(|&x| ((x - max) as f64).exp()).sum();
    max + (sum as f32).ln()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add(name, t);
        (s, id)
    }

    #[test]
    fn forward_matmul_add_values() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let w = tape.input(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let b = tape.input(Tensor::from_vec(1, 2, vec![0.5, -0.5]));
        let h = tape.matmul(a, w);
        let y = tape.add(h, b);
        assert_eq!(tape.value(y).data(), &[1.5, 1.5]);
    }

    #[test]
    fn backward_linear_gradient() {
        // loss = sum(x · W); dW = xᵀ · 1
        let (mut store, w_id) = store_with("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(1, 2, vec![5.0, 7.0]));
        let w = tape.param(&store, w_id);
        let y = tape.matmul(x, w);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w_id).data(), &[5.0, 5.0, 7.0, 7.0]);
    }

    #[test]
    fn backward_gather_rows_scatters() {
        let (mut store, e_id) = store_with("emb", Tensor::from_vec(3, 2, vec![0.0; 6]));
        let mut tape = Tape::new();
        let rows = tape.gather_rows(&store, e_id, &[2, 2, 0]);
        let loss = tape.sum_all(rows);
        tape.backward(loss, &mut store);
        // Row 2 used twice, row 0 once, row 1 never.
        assert_eq!(store.grad(e_id).data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn softmax_ce_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.input(Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let loss = tape.softmax_cross_entropy(logits, &[2]);
        let expected = logsumexp(&[1.0, 2.0, 3.0]) - 3.0;
        assert!((tape.value(loss).get(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn softmax_ce_gradient_is_probs_minus_onehot() {
        let (mut store, w_id) = store_with("logits", Tensor::from_vec(1, 3, vec![0.1, 0.2, 0.3]));
        let mut tape = Tape::new();
        let w = tape.param(&store, w_id);
        let loss = tape.softmax_cross_entropy(w, &[1]);
        tape.backward(loss, &mut store);
        let row = store.value(w_id).row(0).to_vec();
        let lse = logsumexp(&row);
        let g = store.grad(w_id);
        for (j, &x) in row.iter().enumerate() {
            let p = (x - lse).exp();
            let expected = if j == 1 { p - 1.0 } else { p };
            assert!((g.get(0, j) - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_std_normal_zero_at_standard() {
        let mut tape = Tape::new();
        let mu = tape.input(Tensor::zeros(1, 4));
        let logvar = tape.input(Tensor::zeros(1, 4));
        let kl = tape.kl_std_normal(mu, logvar);
        assert!(tape.value(kl).get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn kl_std_normal_positive_otherwise() {
        let mut tape = Tape::new();
        let mu = tape.input(Tensor::from_vec(1, 2, vec![1.0, -2.0]));
        let logvar = tape.input(Tensor::from_vec(1, 2, vec![0.5, -0.5]));
        let kl = tape.kl_std_normal(mu, logvar);
        assert!(tape.value(kl).get(0, 0) > 0.0);
    }

    #[test]
    fn logsumexp_rows_stable_for_large_inputs() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(2, 2, vec![1000.0, 1000.0, -1000.0, -1000.0]));
        let out = tape.logsumexp_rows(x);
        let expected = 1000.0 + 2f32.ln();
        assert!((tape.value(out).get(0, 0) - expected).abs() < 1e-3);
        assert!((tape.value(out).get(1, 0) + 1000.0 - 2f32.ln()).abs() < 1e-3);
    }

    #[test]
    fn concat_slice_roundtrip_gradients() {
        let (mut store, id) = store_with("x", Tensor::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let left = tape.slice_cols(x, 0, 2);
        let right = tape.slice_cols(x, 2, 2);
        let glued = tape.concat_cols(left, right);
        let doubled = tape.scale(glued, 2.0);
        let loss = tape.sum_all(doubled);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(id).data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_add_bias_gradient_sums_rows() {
        let (mut store, b_id) = store_with("b", Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let b = tape.param(&store, b_id);
        let y = tape.add(x, b);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(b_id).data(), &[3.0, 3.0]);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // loss = sum(x * x): d/dx = 2x
        let (mut store, id) = store_with("x", Tensor::from_vec(1, 2, vec![3.0, -4.0]));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let sq = tape.mul(x, x);
        let loss = tape.sum_all(sq);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(id).data(), &[6.0, -8.0]);
    }

    #[test]
    fn tape_reset_reuses_buffers() {
        let mut tape = Tape::new();
        let a = tape.scalar(1.0);
        let _ = tape.add_scalar(a, 1.0);
        assert_eq!(tape.len(), 2);
        tape.reset();
        assert!(tape.is_empty());
        let b = tape.scalar(2.0);
        assert_eq!(tape.value(b).get(0, 0), 2.0);
    }

    #[test]
    fn repeated_passes_stop_allocating() {
        let (mut store, w_id) =
            store_with("w", Tensor::from_vec(3, 3, (0..9).map(|i| i as f32 * 0.1).collect()));
        let mut tape = Tape::new();
        let run = |tape: &mut Tape, store: &mut ParamStore| {
            tape.reset();
            let x = tape.input(Tensor::from_vec(2, 3, vec![0.5; 6]));
            let w = tape.param(store, w_id);
            let y = tape.matmul(x, w);
            let s = tape.sigmoid(y);
            let loss = tape.softmax_cross_entropy(s, &[0, 2]);
            tape.backward(loss, store);
        };
        run(&mut tape, &mut store);
        run(&mut tape, &mut store); // second pass may still grow the pool
        let (_, misses_after_warmup) = tape.pool_stats();
        for _ in 0..5 {
            run(&mut tape, &mut store);
        }
        let (hits, misses) = tape.pool_stats();
        assert_eq!(misses, misses_after_warmup, "steady-state pass allocated");
        assert!(hits > 0);
    }

    #[test]
    fn param_leaves_read_the_store_in_place() {
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = (0..4)
            .map(|i| store.add(format!("p{i}"), Tensor::from_vec(2, 3, vec![i as f32; 6])))
            .collect();
        let mut tape = Tape::new();
        // Warm the pool, so a leaf that took a buffer would show as a hit.
        let w = tape.param(&store, ids[0]);
        let y = tape.scale(w, 2.0);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        tape.reset();

        let before = tape.pool_stats();
        let leaves: Vec<Var> = ids.iter().map(|&id| tape.param(&store, id)).collect();
        assert_eq!(tape.pool_stats(), before, "a parameter leaf took a pool buffer");
        for (&leaf, &id) in leaves.iter().zip(&ids) {
            assert!(std::ptr::eq(tape.value(leaf).data(), store.value(id).data()));
        }
    }

    #[test]
    fn a_parameter_read_by_several_ops_sums_its_contributions_in_backward_order() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let w0 = Tensor::rand_uniform(3, 3, -1.0, 1.0, &mut rng);
        let b0 = Tensor::rand_uniform(1, 3, -1.0, 1.0, &mut rng);
        let x0 = Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng);
        let c0 = Tensor::rand_uniform(3, 3, -1.0, 1.0, &mut rng);
        // `W` feeds two linears and a mul; read `k` (or every read, for
        // `None`) takes the parameter leaf, the others a constant copy.
        let grad_of_w = |k: Option<usize>| {
            let mut store = ParamStore::new();
            let (w_id, b_id) = (store.add("w", w0.clone()), store.add("b", b0.clone()));
            let mut tape = Tape::new();
            let leaf = tape.param(&store, w_id);
            let copy = tape.input(w0.clone());
            let w = |read: usize| if k.is_none_or(|k| k == read) { leaf } else { copy };
            let (b, x, c) =
                (tape.param(&store, b_id), tape.input(x0.clone()), tape.input(c0.clone()));
            let h = tape.linear(x, w(0), b, false);
            let y = tape.linear(h, w(1), b, true);
            let m = tape.mul(w(2), c);
            let (sy, sm) = (tape.sum_all(y), tape.sum_all(m));
            let loss = tape.add(sy, sm);
            tape.backward(loss, &mut store);
            store.grad(w_id).clone()
        };
        let parts: Vec<Tensor> = (0..3).map(|read| grad_of_w(Some(read))).collect();
        // Backward visits the reads last first.
        let mut expected = Tensor::zeros(3, 3);
        for part in parts.iter().rev() {
            expected.add_assign(part);
        }
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grad_of_w(None)), bits(&expected));
    }

    #[test]
    fn concat_rows_stacks_and_routes_gradients() {
        let (mut store, id) = store_with("x", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let y = tape.scale(x, 2.0);
        let stacked = tape.concat_rows(&[x, y]);
        assert_eq!(tape.value(stacked).shape(), (4, 2));
        assert_eq!(tape.value(stacked).data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
        let loss = tape.sum_all(stacked);
        tape.backward(loss, &mut store);
        // d/dx of sum(x) + sum(2x) = 1 + 2.
        assert_eq!(store.grad(id).data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn select_rows_gathers_and_scatter_adds() {
        let (mut store, id) =
            store_with("x", Tensor::from_vec(3, 2, vec![0., 1., 10., 11., 20., 21.]));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let picked = tape.select_rows(x, &[2, 0, 2]);
        assert_eq!(tape.value(picked).data(), &[20., 21., 0., 1., 20., 21.]);
        let loss = tape.sum_all(picked);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(id).data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn gru_step_matches_composed_ops() {
        use crate::nn::GruCell;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // The fused step (hoisted input-gate GEMM + one pregated node)
        // against the op-by-op formulation of `BoundGru::step_unfused`, to
        // the bit: output and every parameter gradient. Both run the same
        // fast-math gates in the same association. Widths on both sides of
        // the matmul panel (16 columns), row counts on both sides of its
        // row tile (4 rows).
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (hd, in_dim) in [(1, 1), (5, 3), (20, 7), (32, 7), (48, 24), (128, 64), (256, 24)] {
            for bsz in [1, 3, 4, 7, 9, 17, 33] {
                let case = format!("hidden {hd}, in {in_dim}, {bsz} rows");
                let mut rng = StdRng::seed_from_u64((hd * 100 + bsz) as u64);
                let mut store = ParamStore::new();
                let gru = GruCell::new(&mut store, "gru", in_dim, hd, &mut rng);
                // Wider weights than the Xavier init and a non-zero bias, so
                // the gates leave their linear range.
                for id in store.ids().collect::<Vec<_>>() {
                    let (r, c) = store.value(id).shape();
                    *store.value_mut(id) = Tensor::rand_uniform(r, c, -0.7, 0.7, &mut rng);
                }
                *store.value_mut(gru.gate_bias()) =
                    Tensor::rand_uniform(1, 3 * hd, -0.3, 0.3, &mut rng);
                let x_t = Tensor::rand_uniform(bsz, in_dim, -1.0, 1.0, &mut rng);
                let h_t = Tensor::rand_uniform(bsz, hd, -0.9, 0.9, &mut rng);

                let run = |fused: bool| {
                    let mut store = store.clone();
                    let mut tape = Tape::new();
                    let bound = gru.bind(&mut tape, &store);
                    let x = tape.input(x_t.clone());
                    let h = tape.input(h_t.clone());
                    let out = if fused {
                        let gx = bound.input_gates(&mut tape, x);
                        bound.step_pregated(&mut tape, gx, 0, h)
                    } else {
                        bound.step_unfused(&mut tape, x, h)
                    };
                    let loss = tape.sum_all(out);
                    tape.backward(loss, &mut store);
                    (tape.value(out).clone(), store)
                };
                let (out_ref, store_ref) = run(false);
                let (out_fused, store_fused) = run(true);

                assert_eq!(bits(&out_fused), bits(&out_ref), "forward, {case}");
                for id in store.ids() {
                    let name = store.name(id);
                    let (fused, reference) = (store_fused.grad(id), store_ref.grad(id));
                    assert_eq!(bits(fused), bits(reference), "grad {name}, {case}");
                }
            }
        }
    }
}
