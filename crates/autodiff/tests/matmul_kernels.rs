//! Equivalence battery for every matmul kernel variant.
//!
//! All three layouts (`A·B`, `A·Bᵀ`, `Aᵀ·B`) pin the same accumulation
//! order: each output element accumulates over the shared dimension in
//! ascending order with `mul_add`, in the register-tiled paths, the
//! streaming fallbacks, and the scalar references below. That makes the
//! kernels **exactly** equal (bit for bit) to the naive reference — the
//! property the batched inference/training equivalence guarantees build on.
//!
//! Shapes are drawn to straddle the tile boundaries (`MR = 4` rows,
//! `NR = 16` columns): degenerate 1×1 / one-row / one-column operands,
//! sizes just below/at/above the tile edges (5, 6 and 7 rows leave one,
//! two and three rows to the short tile), and ragged combinations.
//!
//! The accumulating forms (`*_acc_into`) must continue the same chain from
//! whatever `out` already holds, and a product against an operand packed
//! once ([`PackedRhs`]) must equal the one that packs on the fly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tad_autodiff::{PackedRhs, Tensor};

/// Scalar reference for `A·B`: ascending-k `mul_add`, one accumulator per
/// output element.
fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a.get(i, p).mul_add(b.get(p, j), acc);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Scalar reference for `A·Bᵀ` (`b` is `n x k`).
fn reference_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.rows();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a.get(i, p).mul_add(b.get(j, p), acc);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Scalar reference for `Aᵀ·B` (`a` is `p x m`, `b` is `p x n`).
fn reference_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (p, m) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for q in 0..p {
                acc = a.get(q, i).mul_add(b.get(q, j), acc);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Scalar reference for any accumulating layout: element `(i, j)` continues
/// from `init[i][j]` over `p = 0..k` ascending with `mul_add`.
fn reference_chain(
    init: &Tensor,
    k: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
) -> Tensor {
    let mut out = init.clone();
    for i in 0..init.rows() {
        for j in 0..init.cols() {
            let mut acc = init.get(i, j);
            for p in 0..k {
                acc = a_at(i, p).mul_add(b_at(p, j), acc);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Dimension values straddling the MR (4) and NR (16) tile boundaries plus
/// degenerate sizes.
const DIMS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 33];

fn rand_tensor(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(rows, cols, -2.0, 2.0, &mut rng)
}

fn assert_bits_equal(got: &Tensor, want: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        got.shape() == want.shape(),
        "{what}: shape {:?} vs {:?}",
        got.shape(),
        want.shape()
    );
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(x.to_bits() == y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matmul_into` (tiled + streaming paths) is bit-exact vs the scalar
    /// reference for every shape class.
    #[test]
    fn matmul_matches_reference_exactly(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 0xa5a5, k, n);
        assert_bits_equal(&a.matmul(&b), &reference_matmul(&a, &b), "matmul")?;
    }

    /// `matmul_t_into` (tiled + dot-product paths) is bit-exact vs the
    /// scalar reference.
    #[test]
    fn matmul_t_matches_reference_exactly(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 0x5a5a, n, k);
        assert_bits_equal(&a.matmul_t(&b), &reference_matmul_t(&a, &b), "matmul_t")?;
    }

    /// `matmul_tn_into` (tiled + outer-product paths) is bit-exact vs the
    /// scalar reference.
    #[test]
    fn matmul_tn_matches_reference_exactly(seed in 0u64..10_000, pi in 0usize..DIMS.len(), mi in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (p, m, n) = (DIMS[pi], DIMS[mi], DIMS[ni]);
        let a = rand_tensor(seed, p, m);
        let b = rand_tensor(seed ^ 0x3c3c, p, n);
        assert_bits_equal(&a.matmul_tn(&b), &reference_matmul_tn(&a, &b), "matmul_tn")?;
    }

    /// The three layouts agree with each other through explicit transposes
    /// — exactly, because they share the accumulation order.
    #[test]
    fn layouts_agree_through_transposes(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 0x7171, k, n);
        let plain = a.matmul(&b);
        assert_bits_equal(&a.matmul_t(&b.transpose()), &plain, "matmul_t vs matmul")?;
        assert_bits_equal(&a.transpose().matmul_tn(&b), &plain, "matmul_tn vs matmul")?;
    }

    /// Row-stacking invariance: row `i` of a batched product equals the
    /// product of row `i` alone (the property batched training and fleet
    /// inference rely on).
    #[test]
    fn batched_rows_match_single_rows(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 0x1b1b, k, n);
        let bt = rand_tensor(seed ^ 0x2d2d, n, k);
        let full = a.matmul(&b);
        let full_t = a.matmul_t(&bt);
        for i in 0..m {
            let row = Tensor::from_vec(1, k, a.row(i).to_vec());
            let single = row.matmul(&b);
            assert_bits_equal(&Tensor::from_vec(1, n, full.row(i).to_vec()), &single, "matmul row")?;
            let single_t = row.matmul_t(&bt);
            assert_bits_equal(&Tensor::from_vec(1, n, full_t.row(i).to_vec()), &single_t, "matmul_t row")?;
        }
    }

    /// `matmul_acc_into` / `matmul_t_acc_into` / `matmul_tn_acc_into`
    /// continue each element's chain from a random `out`, bit-exactly.
    #[test]
    fn acc_kernels_continue_the_chain_exactly(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let at = rand_tensor(seed ^ 0x4444, k, m);
        let b = rand_tensor(seed ^ 0x6b6b, k, n);
        let bt = rand_tensor(seed ^ 0x7e7e, n, k);
        let init = rand_tensor(seed ^ 0x9999, m, n);

        let mut out = init.clone();
        a.matmul_acc_into(&b, &mut out);
        let want = reference_chain(&init, k, |i, p| a.get(i, p), |p, j| b.get(p, j));
        assert_bits_equal(&out, &want, "matmul_acc")?;

        let mut out = init.clone();
        a.matmul_t_acc_into(&bt, &mut out);
        let want = reference_chain(&init, k, |i, p| a.get(i, p), |p, j| bt.get(j, p));
        assert_bits_equal(&out, &want, "matmul_t_acc")?;

        let mut out = init.clone();
        at.matmul_tn_acc_into(&b, &mut out);
        let want = reference_chain(&init, k, |i, p| at.get(p, i), |p, j| b.get(p, j));
        assert_bits_equal(&out, &want, "matmul_tn_acc")?;
    }

    /// A product against an operand packed once equals the product that
    /// packs on the fly, for both packings and both forms, at every width
    /// (a packed operand pads its ragged last panel, so it also covers the
    /// widths the on-the-fly kernels leave to their streaming loops).
    #[test]
    fn packed_operand_matches_on_the_fly(seed in 0u64..10_000, mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len()) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = rand_tensor(seed, m, k);
        let b = rand_tensor(seed ^ 0x1f1f, k, n);
        let bt = rand_tensor(seed ^ 0x2e2e, n, k);
        let init = rand_tensor(seed ^ 0x3d3d, m, n);
        let storage = || {
            let (rows, cols) = PackedRhs::storage_shape(k, n);
            // Recycled storage holds arbitrary data; packing must not care.
            Tensor::full(rows, cols, f32::NAN)
        };

        let packed = PackedRhs::pack(&b, storage());
        let mut out = Tensor::full(m, n, f32::NAN);
        packed.matmul_into(a.data(), out.data_mut());
        assert_bits_equal(&out, &a.matmul(&b), "packed A·B")?;
        let mut out = init.clone();
        packed.matmul_acc_into(a.data(), out.data_mut());
        let mut want = init.clone();
        a.matmul_acc_into(&b, &mut want);
        assert_bits_equal(&out, &want, "packed A·B acc")?;

        let packed_t = PackedRhs::pack_transposed(&bt, storage());
        let mut out = Tensor::full(m, n, f32::NAN);
        packed_t.matmul_into(a.data(), out.data_mut());
        assert_bits_equal(&out, &a.matmul_t(&bt), "packed A·Bᵀ")?;
        let mut out = init.clone();
        packed_t.matmul_acc_into(a.data(), out.data_mut());
        let mut want = init.clone();
        a.matmul_t_acc_into(&bt, &mut want);
        assert_bits_equal(&out, &want, "packed A·Bᵀ acc")?;
    }
}

/// Bit equality outside `proptest!`.
fn same_bits(got: &[f32], want: &Tensor, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want.data()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

/// One and two rows of a packed product run as short tiles across four
/// and two neighbouring panels, three to five as single-panel tiles: at
/// odd inner dimensions and at widths on both sides of one, two and four
/// panels (16, 32, 64 columns) — ragged last panel included — every form
/// must equal the on-the-fly product of the same rows.
#[test]
fn packed_products_of_one_to_five_rows_match_on_the_fly_at_odd_shapes() {
    for m in 1..=5 {
        for k in [1, 7, 33, 101] {
            for n in [1, 15, 31, 33, 63, 64, 65, 95, 127, 129, 191, 300] {
                let seed = (m * 1000 + k * 10 + n) as u64;
                let a = rand_tensor(seed, m, k);
                let b = rand_tensor(seed ^ 0x1f1f, k, n);
                let bt = rand_tensor(seed ^ 0x2e2e, n, k);
                let init = rand_tensor(seed ^ 0x3d3d, m, n);
                let what = |form: &str| format!("{form} ({m},{k},{n})");
                let storage = || {
                    let (rows, cols) = PackedRhs::storage_shape(k, n);
                    Tensor::full(rows, cols, f32::NAN)
                };

                let packed = PackedRhs::pack(&b, storage());
                let mut out = vec![f32::NAN; m * n];
                packed.matmul_into(a.data(), &mut out);
                same_bits(&out, &a.matmul(&b), &what("packed A·B"));
                let mut out = init.clone();
                packed.matmul_acc_into(a.data(), out.data_mut());
                let mut want = init.clone();
                a.matmul_acc_into(&b, &mut want);
                same_bits(out.data(), &want, &what("packed A·B acc"));

                let packed_t = PackedRhs::pack_transposed(&bt, storage());
                let mut out = vec![f32::NAN; m * n];
                packed_t.matmul_into(a.data(), &mut out);
                same_bits(&out, &a.matmul_t(&bt), &what("packed A·Bᵀ"));
                let mut out = init.clone();
                packed_t.matmul_acc_into(a.data(), out.data_mut());
                let mut want = init.clone();
                a.matmul_t_acc_into(&bt, &mut want);
                same_bits(out.data(), &want, &what("packed A·Bᵀ acc"));

                // The same product on borrowed rows.
                let mut out = vec![f32::NAN; m * n];
                b.mul_rows_into(a.data(), &mut out);
                same_bits(&out, &a.matmul(&b), &what("borrowed rows"));
            }
        }
    }
}

/// `dot_rows_into` interleaves four rows' chains: groups of one to nine
/// rows (short last groups, a repeated row) at odd widths give the bits of
/// the gather + `A·Bᵀ` it replaces.
#[test]
fn dot_rows_match_gather_then_matmul_t() {
    for k in [1, 5, 48, 101, 256] {
        let w = rand_tensor(k as u64, 23, k);
        let x = rand_tensor(k as u64 ^ 0x77, 1, k);
        for count in 0..=9 {
            let rows: Vec<u32> = (0..count).map(|j| (j * 7 + 3) % 23).chain([3]).collect();
            let mut out = vec![f32::NAN; rows.len()];
            w.dot_rows_into(x.data(), &rows, &mut out);
            same_bits(
                &out,
                &x.matmul_t(&w.gather_rows(&rows)),
                &format!("k {k}, {count} + 1 rows"),
            );
        }
        w.dot_rows_into(x.data(), &[], &mut []);
    }
}
