//! Finite-difference gradient checks for every differentiable op.
//!
//! Strategy: build a scalar loss as a function of the parameters in a
//! [`ParamStore`], run `Tape::backward`, then perturb each scalar parameter
//! by ±h and compare the central difference against the analytic gradient.
//! Tolerances are loose because the engine computes in `f32`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::nn::{Embedding, GaussianHead, GruCell, Linear};
use crate::{ParamStore, Tape, Tensor, Var};

/// Evaluates `f` as a pure function of the store's current parameter values.
fn eval_loss(store: &ParamStore, f: &dyn Fn(&mut Tape, &ParamStore) -> Var) -> f64 {
    let mut tape = Tape::new();
    let loss = f(&mut tape, store);
    tape.value(loss).get(0, 0) as f64
}

/// Runs backward once, then checks every parameter scalar against a central
/// finite difference. `h` is the perturbation, `tol` the mixed tolerance:
/// `|analytic - numeric| <= tol * (1 + |analytic| + |numeric|)`.
fn gradcheck(store: &mut ParamStore, f: impl Fn(&mut Tape, &ParamStore) -> Var, h: f32, tol: f64) {
    store.zero_grads();
    let mut tape = Tape::new();
    let loss = f(&mut tape, store);
    assert!(tape.value(loss).all_finite(), "loss is not finite");
    tape.backward(loss, store);

    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        for k in 0..store.value(id).len() {
            let orig = store.value(id).data()[k];

            store.value_mut(id).data_mut()[k] = orig + h;
            let up = eval_loss(store, &f);
            store.value_mut(id).data_mut()[k] = orig - h;
            let down = eval_loss(store, &f);
            store.value_mut(id).data_mut()[k] = orig;

            let numeric = (up - down) / (2.0 * h as f64);
            let analytic = store.grad(id).data()[k] as f64;
            let err = (analytic - numeric).abs();
            let bound = tol * (1.0 + analytic.abs() + numeric.abs());
            assert!(
                err <= bound,
                "param {} [{k}]: analytic {analytic:.6} vs numeric {numeric:.6} (err {err:.2e} > {bound:.2e})",
                store.name(id)
            );
        }
    }
}

fn seeded_store(seed: u64, shapes: &[(&str, usize, usize)]) -> ParamStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    for &(name, r, c) in shapes {
        store.add(name, Tensor::rand_uniform(r, c, -0.9, 0.9, &mut rng));
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_chain_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("a", 2, 3), ("b", 3, 2)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let a = tape.param(store, ids[0]);
            let b = tape.param(store, ids[1]);
            let c = tape.matmul(a, b);
            let t = tape.tanh(c);
            tape.sum_all(t)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn matmul_t_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("a", 2, 4), ("b", 3, 4)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let a = tape.param(store, ids[0]);
            let b = tape.param(store, ids[1]);
            let c = tape.matmul_t(a, b);
            let s = tape.sigmoid(c);
            tape.sum_all(s)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn elementwise_mix_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("x", 2, 3), ("y", 2, 3)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let x = tape.param(store, ids[0]);
            let y = tape.param(store, ids[1]);
            let p = tape.mul(x, y);
            let d = tape.sub(p, y);
            let e = tape.exp(d);
            let sc = tape.scale(e, 0.5);
            let sh = tape.add_scalar(sc, 1.0);
            tape.sum_all(sh)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn softmax_ce_gradients(seed in 0u64..1000, target in 0u32..4) {
        let mut store = seeded_store(seed, &[("logits", 2, 4)]);
        gradcheck(&mut store, move |tape, store| {
            let id = store.ids().next().unwrap();
            let logits = tape.param(store, id);
            tape.softmax_cross_entropy(logits, &[target, 3 - target])
        }, 1e-3, 2e-2);
    }

    #[test]
    fn logsumexp_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("x", 3, 5)]);
        gradcheck(&mut store, |tape, store| {
            let id = store.ids().next().unwrap();
            let x = tape.param(store, id);
            let lse = tape.logsumexp_rows(x);
            tape.sum_all(lse)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn kl_and_reparam_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("mu", 1, 4), ("logvar", 1, 4)]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let eps = Tensor::randn(1, 4, 0.0, 1.0, &mut rng);
        gradcheck(&mut store, move |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let mu = tape.param(store, ids[0]);
            let logvar = tape.param(store, ids[1]);
            let kl = tape.kl_std_normal(mu, logvar);
            let z = tape.gaussian_sample(mu, logvar, eps.clone());
            let zsq = tape.mul(z, z);
            let rec = tape.sum_all(zsq);
            tape.add(kl, rec)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn gather_subset_projection_gradients(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 6, 3, &mut rng);
        let proj = Linear::new_rowmajor(&mut store, "proj", 3, 6, &mut rng);
        gradcheck(&mut store, move |tape, store| {
            let x = emb.lookup(tape, store, &[4, 1]);
            let logits = proj.forward_subset(tape, store, x, &[0, 2, 5]);
            tape.softmax_cross_entropy(logits, &[1, 2])
        }, 1e-3, 2e-2);
    }

    #[test]
    fn mlp_gradients(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let l0 = Linear::new(&mut store, "mlp.l0", 3, 5, &mut rng);
        let l1 = Linear::new(&mut store, "mlp.l1", 5, 2, &mut rng);
        let x_t = Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng);
        gradcheck(&mut store, move |tape, store| {
            let x = tape.input(x_t.clone());
            let h_pre = l0.forward(tape, store, x);
            let h = tape.tanh(h_pre);
            let y = l1.forward(tape, store, h);
            tape.softmax_cross_entropy(y, &[0, 1])
        }, 1e-3, 3e-2);
    }

    #[test]
    fn gru_two_step_gradients(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        // The per-step reference node (`Tape::gru_step_pregated`): two
        // chained steps reading their rows of one hoisted input-gate GEMM.
        let gru = GruCell::new(&mut store, "gru", 2, 3, &mut rng);
        let xs = Tensor::rand_uniform(2, 2, -1.0, 1.0, &mut rng);
        gradcheck(&mut store, move |tape, store| {
            let bound = gru.bind(tape, store);
            let h0 = tape.input(Tensor::zeros(1, 3));
            let x_all = tape.input(xs.clone());
            let gx_all = bound.input_gates(tape, x_all);
            let h1 = bound.step_pregated(tape, gx_all, 0, h0);
            let h2 = bound.step_pregated(tape, gx_all, 1, h1);
            let sq = tape.mul(h2, h2);
            tape.sum_all(sq)
        }, 1e-3, 3e-2);
    }

    #[test]
    fn gru_sequence_gradients(seed in 0u64..1000) {
        // The whole-recurrence node on a ragged schedule: three sequences,
        // a step that drops one row, a step that keeps both, a step that
        // drops another. Embedding rows, W, U, b and the initial states all
        // get finite-difference-checked through it.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", 4, 2, &mut rng);
        let gru = GruCell::new(&mut store, "gru", 2, 3, &mut rng);
        let h0_id = store.add("h0", Tensor::rand_uniform(3, 3, -0.9, 0.9, &mut rng));
        let schedule = vec![vec![0u32, 1, 2], vec![0, 2], vec![0, 2], vec![2]];
        gradcheck(&mut store, move |tape, store| {
            let bound = gru.bind(tape, store);
            let h0 = tape.param(store, h0_id);
            let x_all = emb.lookup(tape, store, &[0, 3, 1, 2, 2, 1, 0, 3]);
            let gx_all = bound.input_gates(tape, x_all);
            let h_all = bound.sequence(tape, gx_all, h0, &schedule);
            let sq = tape.mul(h_all, h_all);
            tape.sum_all(sq)
        }, 1e-3, 3e-2);
    }

    #[test]
    fn gaussian_head_vae_loss_gradients(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let head = GaussianHead::new(&mut store, "head", 3, 2, &mut rng);
        let dec = Linear::new(&mut store, "dec", 2, 4, &mut rng);
        let x_t = Tensor::rand_uniform(1, 3, -1.0, 1.0, &mut rng);
        let eps = Tensor::randn(1, 2, 0.0, 1.0, &mut rng);
        gradcheck(&mut store, move |tape, store| {
            let x = tape.input(x_t.clone());
            let (mu, logvar) = head.forward(tape, store, x);
            let z = tape.gaussian_sample(mu, logvar, eps.clone());
            let logits = dec.forward(tape, store, z);
            let rec = tape.softmax_cross_entropy(logits, &[2]);
            let kl = tape.kl_std_normal(mu, logvar);
            let kl_w = tape.scale(kl, 0.1);
            tape.add(rec, kl_w)
        }, 1e-3, 3e-2);
    }

    #[test]
    fn subset_softmax_ce_gradients(seed in 0u64..1000) {
        // The fused road-constrained head: x rows scored against ragged
        // candidate spans of a row-major projection. x, W and b all get
        // finite-difference-checked.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let head = Linear::new_rowmajor(&mut store, "head", 3, 6, &mut rng);
        let x_init = Tensor::rand_uniform(3, 3, -1.0, 1.0, &mut rng);
        let x_id = store.add("x", x_init);
        gradcheck(&mut store, move |tape, store| {
            let x = tape.param(store, x_id);
            // Spans of width 3 / 2 / 4 with repeated classes across rows.
            head.subset_cross_entropy(
                tape,
                store,
                x,
                &[0, 2, 5, 1, 3, 5, 4, 0, 2],
                &[0, 3, 5, 9],
                &[1, 0, 2],
            )
        }, 1e-3, 3e-2);
    }

    #[test]
    fn subset_softmax_ce_matches_composed_ops(seed in 0u64..1000) {
        // Fused node vs the composed formulation (subset projection +
        // per-row CE): values and parameter gradients must agree.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let mut store = ParamStore::new();
        let head = Linear::new_rowmajor(&mut store, "head", 4, 7, &mut rng);
        let x_t = Tensor::rand_uniform(2, 4, -1.0, 1.0, &mut rng);
        let spans: [&[u32]; 2] = [&[1, 4, 6], &[0, 2]];
        let targets = [2u32, 1];

        let mut fused_store = store.clone();
        let mut tape_f = Tape::new();
        let x = tape_f.input(x_t.clone());
        let fused = head.subset_cross_entropy(
            &mut tape_f, &store, x, &[1, 4, 6, 0, 2], &[0, 3, 5], &targets,
        );
        tape_f.backward(fused, &mut fused_store);

        let mut composed_store = store.clone();
        let mut tape_c = Tape::new();
        let x = tape_c.input(x_t.clone());
        let mut total = None;
        for (i, (cands, &t)) in spans.iter().zip(&targets).enumerate() {
            let row = tape_c.select_rows(x, &[i as u32]);
            let logits = head.forward_subset(&mut tape_c, &store, row, cands);
            let ce = tape_c.softmax_cross_entropy(logits, &[t]);
            total = Some(match total {
                None => ce,
                Some(acc) => tape_c.add(acc, ce),
            });
        }
        let total = total.unwrap();
        tape_c.backward(total, &mut composed_store);

        let fv = tape_f.value(fused).get(0, 0) as f64;
        let cv = tape_c.value(total).get(0, 0) as f64;
        prop_assert!((fv - cv).abs() < 1e-5 * cv.abs().max(1.0), "loss {fv} vs {cv}");
        for id in store.ids() {
            for (a, b) in fused_store.grad(id).data().iter().zip(composed_store.grad(id).data()) {
                prop_assert!((a - b).abs() < 1e-4, "grad {}: {a} vs {b}", store.name(id));
            }
        }
    }

    #[test]
    fn reshape_and_gather_cols_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("x", 2, 6), ("bias", 1, 5)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let x = tape.param(store, ids[0]);
            let wide = tape.reshape(x, 3, 4);
            let t = tape.tanh(wide);
            let flat = tape.reshape(t, 1, 12);
            let picked = tape.gather_cols(store, ids[1], &[4, 0, 2]);
            let sq = tape.mul(picked, picked);
            let a = tape.sum_all(flat);
            let b = tape.sum_all(sq);
            tape.add(a, b)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn gmvsae_style_mixture_prior_gradients(seed in 0u64..1000) {
        // The exact op composition GM-VSAE uses for log p_mix(z).
        let mut store = seeded_store(seed, &[("z", 1, 4), ("means", 3, 4)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let z = tape.param(store, ids[0]);
            let means = tape.param(store, ids[1]);
            let ones = tape.input(Tensor::full(3, 1, 1.0));
            let z_rep = tape.matmul(ones, z);
            let diff = tape.sub(z_rep, means);
            let sq = tape.mul(diff, diff);
            let col = tape.input(Tensor::full(4, 1, 1.0));
            let sums = tape.matmul(sq, col);
            let neg = tape.scale(sums, -0.5);
            let row = tape.reshape(neg, 1, 3);
            let lse = tape.logsumexp_rows(row);
            tape.scale(lse, -1.0)
        }, 1e-3, 2e-2);
    }

    #[test]
    fn concat_slice_broadcast_gradients(seed in 0u64..1000) {
        let mut store = seeded_store(seed, &[("x", 3, 2), ("y", 3, 2), ("bias", 1, 4)]);
        gradcheck(&mut store, |tape, store| {
            let ids: Vec<_> = store.ids().collect();
            let x = tape.param(store, ids[0]);
            let y = tape.param(store, ids[1]);
            let b = tape.param(store, ids[2]);
            let xy = tape.concat_cols(x, y);
            let shifted = tape.add(xy, b);
            let left = tape.slice_cols(shifted, 1, 2);
            let r = tape.relu(left);
            tape.sum_all(r)
        }, 1e-3, 2e-2);
    }
}

#[test]
fn embedding_rows_not_in_batch_get_no_gradient() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let emb = Embedding::new(&mut store, "emb", 8, 2, &mut rng);
    let mut tape = Tape::new();
    let x = emb.lookup(&mut tape, &store, &[3]);
    let loss = tape.sum_all(x);
    tape.backward(loss, &mut store);
    let g = store.grad(emb.table());
    for r in 0..8 {
        let expected = if r == 3 { 1.0 } else { 0.0 };
        assert!(g.row(r).iter().all(|&v| v == expected), "row {r}");
    }
}
