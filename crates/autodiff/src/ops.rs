//! Forward kernels over slices, each written once and called by both
//! paths: a [`crate::Tape`] node computes its value with one of these and
//! records the op, and the tape-free layers of [`crate::nn`] call the same
//! function directly. That taped and tape-free forwards agree bit for bit
//! is therefore a property of the code, not a tolerance a test checks.

use crate::math::{fast_sigmoid, fast_tanh};
use crate::tensor::Tensor;

/// Affine map of the row-major input rows `x` into `out`: `x·W + b` with
/// `W: in x out`, or `x·Wᵀ + b` with `W: out x in` (`transposed`, one
/// contiguous row per output class), and `b: 1 x out`. Any number of rows;
/// each output row depends on its input row alone, bit for bit.
///
/// # Panics
/// Panics if the slice lengths do not describe the same number of rows.
pub fn linear(x: &[f32], w: &Tensor, b: &Tensor, transposed: bool, out: &mut [f32]) {
    if transposed {
        w.mul_rows_t_into(x, out);
    } else {
        w.mul_rows_into(x, out);
    }
    add_bias_rows(out, b);
}

/// Adds a `1 x n` bias row to every row of `out`.
pub(crate) fn add_bias_rows(out: &mut [f32], bias: &Tensor) {
    debug_assert_eq!(bias.rows(), 1);
    for out_row in out.chunks_exact_mut(bias.cols().max(1)) {
        for (o, &b) in out_row.iter_mut().zip(bias.data()) {
            *o += b;
        }
    }
}

/// The road-constrained logits of one input row against the classes
/// `classes` of a row-major (`out x in`) layer:
/// `out[j] = x · W[classes[j]] + b[classes[j]]`, each dot an
/// ascending-`k` `mul_add` chain from zero ([`Tensor::dot_rows_into`]).
///
/// # Panics
/// Panics if `x` is not `in` long, `out` not as long as `classes`, or a
/// class is out of range.
pub fn subset_logits(w: &Tensor, b: &Tensor, x: &[f32], classes: &[u32], out: &mut [f32]) {
    w.dot_rows_into(x, classes, out);
    let bias = b.data();
    for (o, &c) in out.iter_mut().zip(classes) {
        *o += bias[c as usize];
    }
}

/// The gate epilogue of one GRU row, packed gates `[z | r | n]`:
///
/// ```text
/// z = sigmoid(gx_z + gh_z)
/// r = sigmoid(gx_r + gh_r)
/// n = tanh   (gx_n + r * gh_n)
/// h' = n + z * (h - n)
/// ```
///
/// `gx` is the row's pregated input `x·W + b` and `gh` its `h·U`, both
/// `3h` wide; `h'` goes to `out`. `z` and `r` overwrite their
/// pre-activations, leaving `gh = [z | r | gh_n]`; with `n` given (the
/// tape) it receives the candidate state, the rest of what a backward
/// pass needs. Three elementwise passes (z, r, then n and the blend)
/// vectorise much better than one fused loop: each inlines a single
/// polynomial ([`fast_sigmoid`], [`fast_tanh`]).
#[inline]
pub fn gru_gates(gx: &[f32], gh: &mut [f32], h: &[f32], out: &mut [f32], n: Option<&mut [f32]>) {
    let hd = h.len();
    debug_assert_eq!(gx.len(), 3 * hd, "gru_gates: pregated input width");
    debug_assert_eq!(gh.len(), 3 * hd, "gru_gates: recurrent gate width");
    let (zx, rest) = gx.split_at(hd);
    let (rx, nx) = rest.split_at(hd);
    let (z, rest) = gh.split_at_mut(hd);
    let (r, nh) = rest.split_at_mut(hd);
    for (g, &x) in z.iter_mut().zip(zx) {
        *g = fast_sigmoid(x + *g);
    }
    for (g, &x) in r.iter_mut().zip(rx) {
        *g = fast_sigmoid(x + *g);
    }
    let (out, nx, nh) = (&mut out[..hd], &nx[..hd], &nh[..hd]);
    let step = |c: usize| {
        let n = fast_tanh(nx[c] + r[c] * nh[c]);
        (n, n + z[c] * (h[c] - n))
    };
    match n {
        None => out.iter_mut().enumerate().for_each(|(c, o)| *o = step(c).1),
        Some(n) => {
            for (c, (o, nc)) in out.iter_mut().zip(&mut n[..hd]).enumerate() {
                (*nc, *o) = step(c);
            }
        }
    }
}
