//! The layer side of the per-step GRU reference (test code): one fused
//! step node per step, which `crate::gru_sequence` proves
//! [`BoundGru::sequence`] against bit for bit.

use super::BoundGru;
use crate::tape::{Tape, Var};

impl BoundGru {
    /// One recurrence step (`h` is `batch x hidden`) consuming rows
    /// `[start, start + h.rows)` of a precomputed [`BoundGru::input_gates`]
    /// block: a single fused [`Tape::gru_step_pregated`] node. Hidden states
    /// are bit-identical to [`crate::nn::GruCell::infer_step_rows`] and to
    /// [`BoundGru::step_unfused`], values and gradients. The per-step
    /// reference [`BoundGru::sequence`] is proven against (with
    /// [`Tape::select_rows`] where a step shrinks and
    /// [`Tape::concat_rows`] over the steps); nothing trains through it.
    pub(crate) fn step_pregated(&self, tape: &mut Tape, gx_all: Var, start: usize, h: Var) -> Var {
        tape.gru_step_pregated(gx_all, start, h, self.u)
    }
}
