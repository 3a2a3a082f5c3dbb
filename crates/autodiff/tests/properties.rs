//! Algebraic property tests for the tensor engine and tape ops — identities
//! that must hold for arbitrary inputs, complementing the finite-difference
//! gradient checks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tad_autodiff::{logsumexp, Gradients, ParamStore, Tape, Tensor};

fn rand_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(rows, cols, -2.0, 2.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (A · B) · C == A · (B · C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(seed in 0u64..1000, m in 1usize..5, k in 1usize..5, n in 1usize..5, p in 1usize..5) {
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 1, k, n);
        let c = rand_tensor(seed ^ 2, n, p);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// (A · B)ᵀ == Bᵀ · Aᵀ.
    #[test]
    fn matmul_transpose_identity(seed in 0u64..1000, m in 1usize..5, k in 1usize..5, n in 1usize..5) {
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 3, k, n);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// A · Bᵀ computed by the fused kernel equals the two-step version.
    #[test]
    fn matmul_t_consistency(seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 4, n, k);
        let fused = a.matmul_t(&b);
        let two_step = a.matmul(&b.transpose());
        for (x, y) in fused.data().iter().zip(two_step.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax probabilities cached by the fused CE sum to one per row.
    #[test]
    fn softmax_ce_probs_normalise(seed in 0u64..1000, rows in 1usize..5, cols in 2usize..8) {
        let logits = rand_tensor(seed, rows, cols);
        let mut store = ParamStore::new();
        let id = store.add("logits", logits.clone());
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let targets: Vec<u32> = (0..rows as u32).map(|r| r % cols as u32).collect();
        let ce = tape.softmax_cross_entropy(x, &targets);
        // The loss must be at least the NLL of a uniform prediction when
        // logits are equal; generally: ce >= 0 and finite.
        let v = tape.value(ce).get(0, 0);
        prop_assert!(v.is_finite() && v >= 0.0);
        // The loss is the sum of the per-row NLLs lse - logit[target].
        let expected: f64 = targets
            .iter()
            .enumerate()
            .map(|(r, &t)| (logsumexp(logits.row(r)) - logits.get(r, t as usize)) as f64)
            .sum();
        prop_assert!((v as f64 - expected).abs() < 1e-4 * rows as f64);
        // The gradient is probs - onehot: a row of probabilities summing to
        // one is a gradient row summing to zero.
        let mut grads = Gradients::new(&store);
        tape.backward(ce, &store, &mut grads);
        for r in 0..rows {
            let sum: f32 = grads.get(id).row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    /// logsumexp upper/lower bounds: max <= lse <= max + ln(n).
    #[test]
    fn logsumexp_bounds(values in prop::collection::vec(-50.0f32..50.0, 1..20)) {
        let lse = logsumexp(&values);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(lse >= max - 1e-4);
        prop_assert!(lse <= max + (values.len() as f32).ln() + 1e-4);
    }

    /// backward() is additive: running it twice doubles the gradient.
    #[test]
    fn backward_accumulates_across_calls(seed in 0u64..1000) {
        let mut store = ParamStore::new();
        let id = store.add("w", rand_tensor(seed, 2, 3));
        let mut tape = Tape::new();
        let mut grads = Gradients::new(&store);
        // A recording supports one backward: record the graph twice.
        let record_and_backward = |tape: &mut Tape, grads: &mut Gradients| {
            tape.reset();
            let w = tape.param(&store, id);
            let sq = tape.mul(w, w);
            let loss = tape.sum_all(sq);
            tape.backward(loss, &store, grads);
        };
        record_and_backward(&mut tape, &mut grads);
        let once = grads.get(id).clone();
        record_and_backward(&mut tape, &mut grads);
        for (g1, g2) in once.data().iter().zip(grads.get(id).data()) {
            prop_assert!((2.0 * g1 - g2).abs() < 1e-5);
        }
    }

    /// Reshape round-trip is the identity for values and gradients.
    #[test]
    fn reshape_roundtrip_identity(seed in 0u64..1000) {
        let t = rand_tensor(seed, 3, 4);
        let mut store = ParamStore::new();
        let id = store.add("x", t.clone());
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let there = tape.reshape(x, 4, 3);
        let back = tape.reshape(there, 3, 4);
        prop_assert_eq!(tape.value(back).data(), t.data());
        let loss = tape.sum_all(back);
        let mut grads = Gradients::new(&store);
        tape.backward(loss, &store, &mut grads);
        prop_assert!(grads.get(id).data().iter().all(|&g| (g - 1.0).abs() < 1e-6));
    }

    /// Tensor codec: ParamStore round-trips arbitrary shapes bit-exactly.
    #[test]
    fn param_store_codec_roundtrip(seed in 0u64..1000, r in 1usize..6, c in 1usize..6) {
        let mut store = ParamStore::new();
        store.add("a", rand_tensor(seed, r, c));
        store.add("b", rand_tensor(seed ^ 9, c, r));
        let restored = ParamStore::from_bytes(store.to_bytes()).unwrap();
        for id in store.ids() {
            prop_assert_eq!(restored.value(id).data(), store.value(id).data());
        }
    }
}
