//! The whole-recurrence node ([`Tape::gru_sequence`]) against the per-step
//! composition it replaced in training: one `gru_step_pregated` node per
//! step, a `select_rows` wherever the ragged batch shrinks, one
//! `concat_rows` over the steps (the step node and the concatenation are
//! test code, in `tape/reference.rs` and `nn/reference.rs`, so this proof
//! is a module of the crate). Everything must agree **bit for bit** —
//! the stacked hidden rows, the loss, and every gradient — on schedules
//! whose steps shrink by none, one and several rows and whose row counts
//! cross the matmul micro-kernel's row-tile height.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nn::{BoundGru, Embedding, GruCell};
use crate::{ParamId, ParamStore, Tape, Tensor, Var};

/// Per step, the sequences (rows of `h0`) with a transition left; every
/// sequence has at least one, as every training trajectory does.
fn schedule_of(lengths: &[usize]) -> Vec<Vec<u32>> {
    let longest = lengths.iter().copied().max().expect("non-empty batch");
    (0..longest)
        .map(|t| (0..lengths.len() as u32).filter(|&i| lengths[i as usize] > t).collect())
        .collect()
}

struct Model {
    store: ParamStore,
    emb: Embedding,
    gru: GruCell,
    h0: ParamId,
    /// One input token per stacked row, time-major.
    tokens: Vec<u32>,
    /// Fixed per-element weights of the loss, so no two rows (and no two
    /// steps) see the same head gradient.
    loss_weights: Tensor,
}

impl Model {
    fn new(seed: u64, hidden: usize, schedule: &[Vec<u32>]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (vocab, in_dim) = (7, 3);
        let rows: usize = schedule.iter().map(Vec::len).sum();
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", vocab, in_dim, &mut rng);
        let gru = GruCell::new(&mut store, "gru", in_dim, hidden, &mut rng);
        let gate_bias = Tensor::rand_uniform(1, 3 * hidden, -0.3, 0.3, &mut rng);
        *store.value_mut(gru.gate_bias()) = gate_bias;
        let h0 =
            store.add("h0", Tensor::rand_uniform(schedule[0].len(), hidden, -0.9, 0.9, &mut rng));
        let tokens = (0..rows).map(|_| rng.gen_range(0..vocab as u32)).collect();
        let loss_weights = Tensor::rand_uniform(rows, hidden, -1.0, 1.0, &mut rng);
        Model { store, emb, gru, h0, tokens, loss_weights }
    }

    /// Runs `recurrence` between the shared prologue (embedding lookup,
    /// hoisted input-gate GEMM) and the shared loss; returns the stacked
    /// hidden rows, the loss and the store holding the gradients.
    fn run(
        &self,
        recurrence: impl Fn(&mut Tape, &BoundGru, Var, Var) -> Var,
    ) -> (Tensor, f32, ParamStore) {
        let mut store = self.store.clone();
        let mut tape = Tape::new();
        let bound = self.gru.bind(&mut tape, &store);
        let h0 = tape.param(&store, self.h0);
        let x_all = self.emb.lookup(&mut tape, &store, &self.tokens);
        let gx_all = bound.input_gates(&mut tape, x_all);
        let h_all = recurrence(&mut tape, &bound, gx_all, h0);
        let weights = tape.input(self.loss_weights.clone());
        let weighted = tape.mul(h_all, weights);
        let loss = tape.sum_all(weighted);
        tape.backward(loss, &mut store);
        (tape.value(h_all).clone(), tape.value(loss).get(0, 0), store)
    }
}

/// Exactly the loop `TgVae::loss_batch` ran before the node existed.
fn per_step_composition(
    tape: &mut Tape,
    bound: &BoundGru,
    gx_all: Var,
    h0: Var,
    schedule: &[Vec<u32>],
) -> Var {
    let mut h = h0;
    let mut step_h = Vec::with_capacity(schedule.len());
    let mut offset = 0;
    for (t, act) in schedule.iter().enumerate() {
        if t > 0 && act.len() < schedule[t - 1].len() {
            let keep: Vec<u32> = schedule[t - 1]
                .iter()
                .enumerate()
                .filter(|&(_, i)| act.contains(i))
                .map(|(row, _)| row as u32)
                .collect();
            h = tape.select_rows(h, &keep);
        }
        h = bound.step_pregated(tape, gx_all, offset, h);
        offset += act.len();
        step_h.push(h);
    }
    if step_h.len() == 1 {
        step_h[0]
    } else {
        tape.concat_rows(&step_h)
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batches of 1..=9 sequences of 1..=6 steps: ties drop several rows at
    /// once, gaps leave steps that do not shrink, and the row count walks
    /// down through the row-tile height. Hidden widths 5 (every product
    /// narrower than a column panel), 20 (one full panel plus a ragged one)
    /// and 32 (full panels only).
    #[test]
    fn gru_sequence_matches_per_step_composition_bit_for_bit(
        seed in 0u64..10_000,
        batch in 1usize..10,
        hidden_i in 0usize..3,
    ) {
        let hidden = [5usize, 20, 32][hidden_i];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let lengths: Vec<usize> = (0..batch).map(|_| rng.gen_range(1..=6)).collect();
        let schedule = schedule_of(&lengths);
        let model = Model::new(seed, hidden, &schedule);

        let (h_ref, loss_ref, grads_ref) =
            model.run(|tape, bound, gx, h0| per_step_composition(tape, bound, gx, h0, &schedule));
        let (h_new, loss_new, grads_new) =
            model.run(|tape, bound, gx, h0| bound.sequence(tape, gx, h0, &schedule));

        prop_assert_eq!(h_new.shape(), h_ref.shape());
        prop_assert!(bits(&h_new) == bits(&h_ref), "hidden rows differ (lengths {:?})", lengths);
        prop_assert_eq!(loss_new.to_bits(), loss_ref.to_bits());
        for id in model.store.ids() {
            prop_assert!(
                bits(grads_new.grad(id)) == bits(grads_ref.grad(id)),
                "gradient of {} differs (lengths {:?}, hidden {})",
                model.store.name(id), lengths, hidden
            );
        }
    }
}

#[test]
#[should_panic(expected = "row 0 of step 2 was not running in step 1")]
fn gru_sequence_rejects_a_row_that_comes_back() {
    let schedule = vec![vec![0u32, 1], vec![1], vec![0]];
    let model = Model::new(1, 5, &schedule);
    model.run(|tape, bound, gx, h0| bound.sequence(tape, gx, h0, &schedule));
}
