//! The per-step composition [`Tape::gru_sequence`] is proven against, bit
//! for bit (`crate::gru_sequence`): one [`Tape::gru_step_pregated`] node
//! per step, [`Tape::select_rows`] wherever the ragged batch shrinks, one
//! [`Tape::concat_rows`] over the steps. Test code: nothing trains
//! through it.

use super::{gru_aux, gru_gate_backward_row, Grads, Op, Tape, Value, Var};
use crate::ops;
use crate::pool::TensorPool;
use crate::tensor::Tensor;

impl Tape {
    /// One fused GRU step `h' = GRU(x, h)` with packed `[z | r | n]` gates
    /// and the input-gate projection hoisted out of the recurrence:
    ///
    /// ```text
    /// z = sigmoid(xWz + hUz + bz)
    /// r = sigmoid(xWr + hUr + br)
    /// n = tanh  (xWn + r * (hUn) + bn)
    /// h' = n + z * (h - n)
    /// ```
    ///
    /// Rows `[start, start + h.rows)` of `gx_all` must already hold
    /// `x·W + b` for this step (one [`Tape::linear`] GEMM over every
    /// timestep of the sequence); only the recurrent `h·U` product (`u: h x
    /// 3h`) remains. The gates are [`ops::gru_gates`], the epilogue of
    /// [`crate::nn::GruCell::infer_step_rows`] too, so taped and tape-free
    /// steps produce bit-identical hidden states. Unlike
    /// [`Tape::gru_sequence`], every step re-packs `U` for each product, in
    /// both directions.
    pub(crate) fn gru_step_pregated(&mut self, gx_all: Var, start: usize, h: Var, u: Var) -> Var {
        let (bsz, hd) = self.value(h).shape();
        debug_assert_eq!(self.value(gx_all).cols(), 3 * hd, "gru_step_pregated: gx width");
        debug_assert!(start + bsz <= self.value(gx_all).rows(), "gru_step_pregated: gx row range");
        debug_assert_eq!(self.value(u).shape(), (hd, 3 * hd), "gru_step_pregated: U shape");
        let mut out = self.pool.take_scratch(bsz, hd);
        let mut cache = self.pool.take_scratch(bsz, 4 * hd);
        let (gates, n_rows) = cache.data_mut().split_at_mut(bsz * 3 * hd);
        let (gx, hv) = (&self.values[gx_all.index()], &self.values[h.index()]);
        self.values[u.index()].mul_rows_into(hv.data(), gates);
        let rows = gates.chunks_exact_mut(3 * hd).zip(n_rows.chunks_exact_mut(hd));
        for (r, (gh, n)) in rows.enumerate() {
            ops::gru_gates(gx.row(start + r), gh, hv.row(r), out.row_mut(r), Some(n));
        }
        self.push_with_aux(Op::GruStepPregated { gx: gx_all, start, h, u }, out, Some(cache))
    }

    /// Vertical concatenation of `parts` (all must share a column count).
    /// The backward pass slices the gradient back to each part.
    pub(crate) fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: empty part list");
        let cols = self.value(parts[0]).cols();
        let total: usize = parts
            .iter()
            .map(|&p| {
                assert_eq!(self.value(p).cols(), cols, "concat_rows: column mismatch");
                self.value(p).rows()
            })
            .sum();
        let mut out = self.pool.take_scratch(total, cols);
        let mut off = 0;
        for &p in parts {
            let v = &self.values[p.index()];
            out.data_mut()[off..off + v.len()].copy_from_slice(v.data());
            off += v.len();
        }
        self.push(Op::ConcatRows(parts.to_vec()), out)
    }
}

/// Backward of the two reference ops, for [`Tape::backward`].
pub(super) fn backward(
    op: &Op,
    values: &[Value],
    aux: &[Option<Tensor>],
    pool: &mut TensorPool,
    grads: &mut Grads,
    idx: usize,
    g: Tensor,
) {
    match op {
        Op::GruStepPregated { gx, start, h, u } => {
            gru_pregated_backward(values, aux, pool, grads, idx, &g, *gx, *start, *h, *u);
        }
        Op::ConcatRows(parts) => {
            let mut off = 0;
            for &p in parts {
                let (rows, cols) = values[p.index()].shape();
                let mut dp = pool.take_scratch(rows, cols);
                dp.data_mut().copy_from_slice(&g.data()[off..off + rows * cols]);
                off += rows * cols;
                grads.add(pool, p, dp);
            }
        }
        _ => unreachable!("not a reference op"),
    }
    pool.recycle(g);
}

impl Grads<'_> {
    /// The gradient of `v` (`rows x cols`) for a kernel to accumulate into:
    /// the parameter's for a leaf, else `v`'s slot, zeroed on first use.
    fn acc(&mut self, pool: &mut TensorPool, v: Var, rows: usize, cols: usize) -> &mut Tensor {
        match &self.ops[v.index()] {
            Op::Param(id) => self.params.get_mut(*id),
            _ => self.slots[v.index()].get_or_insert_with(|| pool.take_zeroed(rows, cols)),
        }
    }
}

/// Backward of the pregated GRU step: gate input gradients are added into
/// the matching rows of the `gx` slot (the hoisted input-projection GEMM's
/// own backward handles `W`/`b`). The recurrence reuses `h` and `u` across
/// every step of a sequence, so their gradients (a slot, or the store's
/// for a parameter leaf) almost always exist already — the recurrent terms
/// accumulate straight into them with the `*_acc_into` kernels instead of
/// materialising per-step products plus an add pass.
#[allow(clippy::too_many_arguments)]
fn gru_pregated_backward(
    values: &[Value],
    aux: &[Option<Tensor>],
    pool: &mut TensorPool,
    grads: &mut Grads,
    idx: usize,
    g: &Tensor,
    gx: Var,
    start: usize,
    h: Var,
    u: Var,
) {
    let (gates, nn) = gru_aux(&aux[idx]);
    let hv = &values[h.index()];
    let uv = &values[u.index()];
    let (bsz, hd) = hv.shape();
    let (gxr, gxc) = values[gx.index()].shape();

    let mut dgx = pool.take_scratch(bsz, 3 * hd);
    let mut dgh = pool.take_scratch(bsz, 3 * hd);
    let dh = grads.acc(pool, h, bsz, hd);
    for row in 0..bsz {
        gru_gate_backward_row(
            &gates[row * 3 * hd..(row + 1) * 3 * hd],
            &nn[row * hd..(row + 1) * hd],
            g.row(row),
            hv.row(row),
            dgx.row_mut(row),
            dgh.row_mut(row),
            dh.row_mut(row),
        );
    }
    // dh += dgh · Uᵀ
    dgh.matmul_t_acc_into(uv, dh);
    let gx_slot = grads.acc(pool, gx, gxr, gxc);
    let gx_rows = &mut gx_slot.data_mut()[start * gxc..(start + bsz) * gxc];
    for (d, &v) in gx_rows.iter_mut().zip(dgx.data()) {
        *d += v;
    }
    // dU += Hᵀ · dgh
    let du = grads.acc(pool, u, uv.rows(), uv.cols());
    hv.matmul_tn_acc_into(&dgh, du);
    pool.recycle(dgx);
    pool.recycle(dgh);
}
