//! Dense row-major 2-D `f32` tensor.
//!
//! This is the single value type flowing through the autodiff [`crate::Tape`].
//! Vectors are represented as `1 x n` tensors. The three matmul layouts the
//! models need — `A·B` ([`Tensor::matmul_into`]), `A·Bᵀ`
//! ([`Tensor::matmul_t_into`]) and `Aᵀ·B` ([`Tensor::matmul_tn_into`]), each
//! with an accumulating `*_acc_into` form — share **one** register-tiled,
//! panel-packed FMA micro-kernel for every product at least one column
//! panel (`NR = 16`) wide, at any row count: rows a full `MR = 4` tile does
//! not cover run as a shorter tile over the same packed panel, and a
//! product of at most `MR` rows reads a `k`-major right operand in place
//! through wider tiles. Only outputs narrower than a panel use streaming
//! scalar loops. A right operand that many products reuse can be packed
//! once ([`PackedRhs`]); its one- and two-row products take their
//! accumulator chains from neighbouring panels. The successor-subset heads
//! dot one row with a few weight rows, their chains interleaved
//! ([`Tensor::dot_rows_into`]).
//!
//! Every kernel accumulates each output element over the inner dimension in
//! ascending order with `mul_add`, in the tiled and the streaming paths
//! alike, so results are **bit-identical** across paths, across row counts
//! and across batch row-stacking (verified by the `matmul_kernels` proptest
//! battery).

use rand::Rng;

/// Row-tile height of the register-tiled matmul micro-kernel.
pub(crate) const MR: usize = 4;
/// Column-tile width of the register-tiled matmul micro-kernel (two
/// 256-bit vectors of `f32`; with `MR = 4` the 8 accumulators fit the
/// AVX2 register file without spills).
const NR: usize = 16;

/// Rows whose dot-product chains [`Tensor::dot_rows_into`] interleaves.
const DOT_LANES: usize = 4;

std::thread_local! {
    /// Reusable packing panel for the tiled kernels. Training issues
    /// thousands of small tiled matmuls per epoch (GRU steps, head
    /// gradients); a per-call `vec![0.0; k * NR]` was measurable churn.
    static PACK_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with a zero-free scratch panel of at least `len` floats
/// (contents arbitrary; the packing loops overwrite what they read).
fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_PANEL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// A dense, row-major `rows x cols` matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` tensor with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Builds a `1 x n` row vector from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Tensor { rows: 1, cols: data.len(), data: data.to_vec() }
    }

    /// Samples every element i.i.d. uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { rows, cols, data }
    }

    /// Samples every element i.i.d. from a normal distribution
    /// `N(mean, std^2)` using the Box-Muller transform (avoids a dependency
    /// on `rand_distr`, which is not on the allowed crate list).
    pub fn randn<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f32,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let (z0, z1) = box_muller(rng);
            data.push(mean + std * z0);
            if data.len() < n {
                data.push(mean + std * z1);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * other` (shapes must match).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sum of all elements (accumulated in `f64` for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Squared L2 norm of all elements (accumulated in `f64`, four
    /// parallel lanes so the reduction vectorises — gradient clipping
    /// walks every parameter once per optimiser step).
    pub fn sq_norm(&self) -> f64 {
        let mut lanes = [0.0f64; 4];
        let mut chunks = self.data.chunks_exact(4);
        for ch in chunks.by_ref() {
            for (l, &x) in lanes.iter_mut().zip(ch) {
                *l += (x as f64) * (x as f64);
            }
        }
        for &x in chunks.remainder() {
            lanes[0] += (x as f64) * (x as f64);
        }
        lanes.iter().sum()
    }

    /// Returns the transposed tensor.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `out = self * other` where `self` is `m x k` and `other` is `k x n`.
    ///
    /// Every product at least `NR` columns wide goes through the shared
    /// register-tiled micro-kernel, whatever its row count (a product of at
    /// most `MR` rows streams `other`'s rows in place instead of packing
    /// them: one row tile gives a pack nothing to amortise over); narrower
    /// outputs use the `ikj` streaming loop. Both accumulate each output
    /// element over `p = 0..k` in ascending order, so results are
    /// bit-identical between the two paths — batched inference that stacks
    /// rows gives exactly the per-row results.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_nn::<false>(other, out);
    }

    /// `out += self * other` (accumulating [`Tensor::matmul_into`]): the
    /// existing `out` contents seed the same ascending-`k` `mul_add` chain.
    pub fn matmul_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_nn::<true>(other, out);
    }

    fn product_nn<const ACC: bool>(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        assert_eq!(k, other.rows, "matmul: inner dimensions {k} vs {}", other.rows);
        assert_eq!(out.shape(), (m, other.cols), "matmul: bad output shape");
        other.rows_product::<ACC>(&self.data, &mut out.data);
    }

    /// `out = a · self` for the row-major `m x rows()` slice `a`; `out` is
    /// `m x cols()`. [`Tensor::matmul_into`] for left operands and outputs
    /// that live in borrowed storage (a scratch buffer, a session's own
    /// hidden row), bit for bit.
    ///
    /// # Panics
    /// Panics if the slice lengths do not describe the same `m`.
    pub fn mul_rows_into(&self, a: &[f32], out: &mut [f32]) {
        self.rows_product::<false>(a, out);
    }

    fn rows_product<const ACC: bool>(&self, a: &[f32], out: &mut [f32]) {
        let (k, n) = self.shape();
        if n == 0 {
            return;
        }
        let m = out.len() / n;
        assert_eq!(out.len(), m * n, "matmul: output is not m x {n}");
        assert_eq!(a.len(), m * k, "matmul: left operand is not {m} x {k}");
        if n >= NR {
            return matmul_layout_tiled::<false, false, ACC>(a, &self.data, out, (m, k, n));
        }
        if !ACC {
            out.fill(0.0);
        }
        for (a_row, out_row) in a.chunks_exact(k.max(1)).zip(out.chunks_exact_mut(n)) {
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &self.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = av.mul_add(b, *o);
                }
            }
        }
    }

    /// Convenience allocating wrapper around [`Tensor::matmul_into`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self * other^T` where `self` is `m x k` and `other` is `n x k`.
    ///
    /// Both operands are walked along contiguous rows, so this is the
    /// preferred kernel when the right operand is naturally stored row-major
    /// per output class (e.g. projecting onto a subset of embedding rows).
    /// Products at least `NR` columns wide go through the same register-tiled
    /// micro-kernel as [`Tensor::matmul_into`] (the `NR`-wide panel of
    /// `other` is packed transposed) for every row count; narrower outputs
    /// (successor subsets) keep the streaming dot-product loop. Both paths
    /// accumulate over `k` in ascending order, so results are bit-identical
    /// and `a.matmul_t(b)` equals `a.matmul(&b.transpose())` bit for bit.
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_nt::<false>(other, out);
    }

    /// `out += self * other^T` (accumulating [`Tensor::matmul_t_into`]).
    ///
    /// Gradient accumulation form: recurrent backward steps add straight
    /// into the shared gradient slot instead of materialising a fresh
    /// product and an extra add pass. The running value continues the same
    /// ascending-`k` `mul_add` chain.
    pub fn matmul_t_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_nt::<true>(other, out);
    }

    fn product_nt<const ACC: bool>(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let (n, k2) = other.shape();
        assert_eq!(k, k2, "matmul_t: inner dimensions {k} vs {k2}");
        assert_eq!(out.shape(), (m, n), "matmul_t: bad output shape");
        other.rows_product_t::<ACC>(&self.data, &mut out.data);
    }

    /// `out = a · selfᵀ` for the row-major `m x cols()` slice `a`; `out` is
    /// `m x rows()`. [`Tensor::matmul_t_into`] for left operands and
    /// outputs in borrowed storage, bit for bit.
    ///
    /// # Panics
    /// Panics if the slice lengths do not describe the same `m`.
    pub(crate) fn mul_rows_t_into(&self, a: &[f32], out: &mut [f32]) {
        self.rows_product_t::<false>(a, out);
    }

    fn rows_product_t<const ACC: bool>(&self, a: &[f32], out: &mut [f32]) {
        let (n, k) = self.shape();
        if n == 0 {
            return;
        }
        let m = out.len() / n;
        assert_eq!(out.len(), m * n, "matmul_t: output is not m x {n}");
        assert_eq!(a.len(), m * k, "matmul_t: left operand is not {m} x {k}");
        if n >= NR {
            return matmul_layout_tiled::<false, true, ACC>(a, &self.data, out, (m, k, n));
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &self.data[j * k..(j + 1) * k];
                let mut acc = if ACC { out[i * n + j] } else { 0.0f32 };
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc = x.mul_add(y, acc);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// Convenience allocating wrapper around [`Tensor::matmul_t_into`].
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `out = self^T * other` where `self` is `p x m` and `other` is `p x n`.
    ///
    /// This is the gradient kernel of the tape's matmul rules
    /// (`dB = Aᵀ·g`, `dBᵀ = gᵀ·A`): it reads both operands in their stored
    /// row-major layout, so the backward pass never materialises an explicit
    /// [`Tensor::transpose`] copy. Accumulation per output element runs over
    /// `p` in ascending order with `mul_add` in every path, making the
    /// result bit-identical to `self.transpose().matmul(other)`. Outputs at
    /// least `NR` columns wide are register-tiled (`out` is written exactly
    /// once; the untiled loop re-streams the whole output `p` times).
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_tn::<false>(other, out);
    }

    /// `out += self^T * other` (accumulating [`Tensor::matmul_tn_into`]):
    /// the existing `out` contents seed the accumulators.
    pub fn matmul_tn_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        self.product_tn::<true>(other, out);
    }

    fn product_tn<const ACC: bool>(&self, other: &Tensor, out: &mut Tensor) {
        let (p, m) = self.shape();
        let (p2, n) = other.shape();
        assert_eq!(p, p2, "matmul_tn: outer dimensions {p} vs {p2}");
        assert_eq!(out.shape(), (m, n), "matmul_tn: bad output shape");
        if n >= NR {
            return matmul_layout_tiled::<true, false, ACC>(
                &self.data,
                &other.data,
                &mut out.data,
                (m, p, n),
            );
        }
        if !ACC {
            out.fill_zero();
        }
        // Outer-product accumulation: each `p`-row of `self` scales the
        // matching row of `other` into `m` output rows (inner axpy over `n`
        // vectorises; `p` stays outermost so the per-element order is
        // `p`-ascending).
        for q in 0..p {
            let a_row = &self.data[q * m..(q + 1) * m];
            let b_row = &other.data[q * n..(q + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }

    /// Convenience allocating wrapper around [`Tensor::matmul_tn_into`].
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Gathers the given rows into a new `ids.len() x cols` tensor.
    pub fn gather_rows(&self, ids: &[u32]) -> Tensor {
        let mut out = Tensor::zeros(ids.len(), self.cols);
        for (i, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < self.rows, "gather_rows: row {id} out of {}", self.rows);
            out.row_mut(i).copy_from_slice(self.row(id));
        }
        out
    }

    /// Dots `x` with the given rows: `out[j] = Σ_p x[p] · self[rows[j]][p]`,
    /// each a `p`-ascending `mul_add` chain from zero — the bits
    /// [`Tensor::matmul_t_into`] gives against the gathered rows, with no
    /// gather. The chains of four rows advance together: one such
    /// chain is bound by the latency of its own `mul_add`s, so a small
    /// candidate set (a road segment's successors) costs what one
    /// candidate does.
    ///
    /// # Panics
    /// Panics if `x` is not `cols()` long, `out` not as long as `rows`, or
    /// a row is out of range.
    pub fn dot_rows_into(&self, x: &[f32], rows: &[u32], out: &mut [f32]) {
        let k = self.cols;
        assert_eq!(x.len(), k, "dot_rows: x is not {k} long");
        assert_eq!(out.len(), rows.len(), "dot_rows: one output per row");
        for (ids, outs) in rows.chunks(DOT_LANES).zip(out.chunks_mut(DOT_LANES)) {
            // A short last group repeats its last row: an idle lane costs
            // nothing next to the chain's latency, and there is one loop.
            let w: [&[f32]; DOT_LANES] = std::array::from_fn(|l| {
                let id = ids[l.min(ids.len() - 1)] as usize;
                assert!(id < self.rows, "dot_rows: row {id} out of {}", self.rows);
                &self.data[id * k..id * k + k]
            });
            let mut acc = [0.0f32; DOT_LANES];
            for (p, &xv) in x.iter().enumerate() {
                for (a, w_row) in acc.iter_mut().zip(&w) {
                    *a = xv.mul_add(w_row[p], *a);
                }
            }
            outs.copy_from_slice(&acc[..outs.len()]);
        }
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

// ----- the register-tiled product ------------------------------------------
//
// One micro-kernel serves every layout and every row count. A product is
// cut into `NR`-wide column panels of the right operand, laid out `k`-major;
// the layouts differ only in how a panel is obtained (copied columns of `B`,
// transposed rows of `Bᵀ`, `B`'s own rows read in place, or a [`PackedRhs`]
// packed ahead of time) and in how the left operand is indexed. Rows a full
// `MR`-high tile does not cover run the same kernel as a shorter tile, and
// the last panel of a ragged width is zero-padded to `NR` lanes with only
// the valid lanes loaded and stored — so no output element of a tiled
// product is ever a serial scalar chain, and each is still one
// ascending-`k` `mul_add` chain of its own.

/// `ROWS x W` output tile accumulated in registers over the whole shared
/// dimension: `out[di][..] (+)= Σ_p a_vals[p][di] · panel_rows[p][..]`.
/// `out` starts at the tile's top-left element and has row stride `stride`.
/// The inner `W` loop vectorises; one panel row is reused by all `ROWS`
/// rows.
#[inline(always)]
fn tile_kernel<'p, const ROWS: usize, const W: usize, const ACC: bool>(
    a_vals: impl Iterator<Item = [f32; ROWS]>,
    panel_rows: impl Iterator<Item = &'p [f32; W]>,
    out: &mut [f32],
    stride: usize,
) {
    let mut acc = [[0.0f32; W]; ROWS];
    if ACC {
        for (di, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[di * stride..di * stride + W]);
        }
    }
    for (av, b_chunk) in a_vals.zip(panel_rows) {
        for (acc_row, &a) in acc.iter_mut().zip(&av) {
            for (o, &bv) in acc_row.iter_mut().zip(b_chunk) {
                *o = a.mul_add(bv, *o);
            }
        }
    }
    for (di, acc_row) in acc.iter().enumerate() {
        out[di * stride..di * stride + W].copy_from_slice(acc_row);
    }
}

/// One full-width `ROWS x W` tile of output rows `i0..i0 + ROWS` over the
/// `k` panel rows `panel_rows` yields; `out` starts at the tile's top-left
/// element and has row stride `stride`. `A_T` selects how the left operand
/// is stored: `m x k` row-major (fixed-length row views let the compiler
/// elide the bounds checks of the `k` loop), or `k x m` (the `Aᵀ·B` layout,
/// where a tile's `ROWS` values of one `k` step are contiguous).
#[inline(always)]
fn row_tile<'p, const ROWS: usize, const W: usize, const A_T: bool, const ACC: bool>(
    a: &[f32],
    (m, k, _): (usize, usize, usize),
    i0: usize,
    panel_rows: impl Iterator<Item = &'p [f32; W]>,
    out: &mut [f32],
    stride: usize,
) {
    if A_T {
        // Indexed, not `chunks_exact(m)`: sizing a run-time-width chunk
        // iterator costs a division per tile, which a short `k` feels.
        let a_vals = (0..k).map(|p| a[p * m + i0..p * m + i0 + ROWS].try_into().expect("ROWS"));
        tile_kernel::<ROWS, W, ACC>(a_vals, panel_rows, out, stride);
    } else {
        let a_rows: [&[f32]; ROWS] = std::array::from_fn(|di| &a[(i0 + di) * k..(i0 + di) * k + k]);
        let a_vals = (0..k).map(|p| std::array::from_fn(|di| a_rows[di][p]));
        tile_kernel::<ROWS, W, ACC>(a_vals, panel_rows, out, stride);
    }
}

/// The rows of a packed `k x NR` panel.
#[inline(always)]
fn packed_rows(panel: &[f32]) -> impl Iterator<Item = &[f32; NR]> {
    panel.chunks_exact(NR).map(|row| row.try_into().expect("NR-wide row"))
}

/// One `ROWS`-high tile of a packed panel at output rows `i0..i0 + ROWS`,
/// columns `j0..j0 + width`. The ragged last panel (`width < NR`, padded
/// lanes zero) runs the same full-width kernel on a stack tile and copies
/// only the valid lanes, so the kernel never slices by a run-time width.
#[inline(always)]
fn panel_tile<const ROWS: usize, const A_T: bool, const ACC: bool>(
    a: &[f32],
    dims: (usize, usize, usize),
    i0: usize,
    panel: &[f32],
    out: &mut [f32],
    j0: usize,
    width: usize,
) {
    let n = dims.2;
    let out = &mut out[i0 * n + j0..];
    if width == NR {
        return row_tile::<ROWS, NR, A_T, ACC>(a, dims, i0, packed_rows(panel), out, n);
    }
    let mut edge = [[0.0f32; NR]; ROWS];
    if ACC {
        for (di, edge_row) in edge.iter_mut().enumerate() {
            edge_row[..width].copy_from_slice(&out[di * n..di * n + width]);
        }
    }
    row_tile::<ROWS, NR, A_T, ACC>(a, dims, i0, packed_rows(panel), edge.as_flattened_mut(), NR);
    for (di, edge_row) in edge.iter().enumerate() {
        out[di * n..di * n + width].copy_from_slice(&edge_row[..width]);
    }
}

/// Sweeps one packed `k x NR` column panel over every output row: full
/// `MR`-high tiles, then the `m % MR` leftover rows as one shorter tile on
/// the same panel.
fn sweep_panel<const A_T: bool, const ACC: bool>(
    a: &[f32],
    dims: (usize, usize, usize),
    panel: &[f32],
    out: &mut [f32],
    j0: usize,
    width: usize,
) {
    const { assert!(MR == 4, "the leftover-row dispatches list 1..=MR") };
    let m = dims.0;
    let mut i0 = 0;
    while i0 + MR <= m {
        panel_tile::<MR, A_T, ACC>(a, dims, i0, panel, out, j0, width);
        i0 += MR;
    }
    match m - i0 {
        1 => panel_tile::<1, A_T, ACC>(a, dims, i0, panel, out, j0, width),
        2 => panel_tile::<2, A_T, ACC>(a, dims, i0, panel, out, j0, width),
        3 => panel_tile::<3, A_T, ACC>(a, dims, i0, panel, out, j0, width),
        _ => {}
    }
}

/// A `ROWS`-row tile across `PANELS` adjacent full-width packed panels,
/// walked together: `out[r][q·NR + l] (+)= Σ_p a[r][p] · panel_q[p][l]`. One
/// or two rows on a single panel are two or four accumulator vectors —
/// `mul_add` chains too few to hide their own latency — so the short tiles
/// of a packed product take `ROWS · PANELS · NR / 8 = 8` chains from
/// neighbouring panels instead; each panel is still read front to back.
/// `a` starts at the tile's first row, `out` at its top-left element (row
/// stride `stride`).
#[inline(always)]
fn multi_panel_tile<const ROWS: usize, const PANELS: usize, const ACC: bool>(
    a: &[f32],
    k: usize,
    panels: &[f32],
    out: &mut [f32],
    stride: usize,
) {
    let a_rows: [&[f32]; ROWS] = std::array::from_fn(|r| &a[r * k..r * k + k]);
    let streams: [&[[f32; NR]]; PANELS] =
        std::array::from_fn(|q| &panels[q * k * NR..(q + 1) * k * NR].as_chunks::<NR>().0[..k]);
    let mut acc = [[[0.0f32; NR]; PANELS]; ROWS];
    if ACC {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.as_flattened_mut().copy_from_slice(&out[r * stride..r * stride + PANELS * NR]);
        }
    }
    for p in 0..k {
        for (q, stream) in streams.iter().enumerate() {
            let b_row = &stream[p];
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[p];
                for (o, &bv) in acc_row[q].iter_mut().zip(b_row) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * stride..r * stride + PANELS * NR].copy_from_slice(acc_row.as_flattened());
    }
}

/// A product of `ROWS <= MR` rows against the row-major `k x n` matrix `b`
/// read in place: one row tile gives a pack nothing to amortise over, and
/// the fewer the rows, the wider the tile (`W`) has to be for its
/// `ROWS * W / 8` independent FMA chains to hide the FMA latency. Covers
/// as many whole `W`-wide column blocks from `from` on as fit and returns
/// the first column left over.
fn sweep_in_place<const ROWS: usize, const W: usize, const A_T: bool, const ACC: bool>(
    a: &[f32],
    dims: (usize, usize, usize),
    b: &[f32],
    out: &mut [f32],
    from: usize,
) -> usize {
    let n = dims.2;
    let end = n - (n - from) % W;
    for j0 in (from..end).step_by(W) {
        // `chunks`, not `chunks_exact`: the last row is cut short by the
        // slice end, but never below `W` floats.
        let rows = b[j0..].chunks(n).map(|row| row[..W].try_into().expect("W-wide row"));
        row_tile::<ROWS, W, A_T, ACC>(a, dims, 0, rows, &mut out[j0..], n);
    }
    end
}

/// Packs columns `j0..j0 + width` of the row-major `k x n` matrix `b` into
/// a `k x NR` panel (lanes past `width` zeroed).
fn pack_cols(b: &[f32], n: usize, j0: usize, width: usize, panel: &mut [f32]) {
    let rows = panel.chunks_exact_mut(NR).zip(b.chunks_exact(n));
    if width == NR {
        // Fixed-length copies: two vector moves a row, not a `memcpy` call.
        for (row, b_row) in rows {
            row.copy_from_slice(&b_row[j0..j0 + NR]);
        }
    } else {
        for (row, b_row) in rows {
            row[..width].copy_from_slice(&b_row[j0..j0 + width]);
            row[width..].fill(0.0);
        }
    }
}

/// Packs rows `j0..j0 + width` of the row-major `n x k` matrix `b` —
/// columns of `bᵀ` — into a `k x NR` panel (lanes past `width` zeroed):
/// `panel[p][jj] = b[j0 + jj][p]`. Each source row is read in contiguous
/// runs of `PACK_DEPTH`, so the panel rows one block of runs scatters into
/// (16 KiB) stay in L1 however long `k` is.
fn pack_rows_transposed(b: &[f32], k: usize, j0: usize, width: usize, panel: &mut [f32]) {
    const PACK_DEPTH: usize = 256;
    if width < NR {
        panel.fill(0.0);
    }
    for p0 in (0..k).step_by(PACK_DEPTH) {
        let depth = PACK_DEPTH.min(k - p0);
        let block = &mut panel[p0 * NR..(p0 + depth) * NR];
        for jj in 0..width {
            let b_run = &b[(j0 + jj) * k + p0..(j0 + jj) * k + p0 + depth];
            for (pp, &bv) in b_run.iter().enumerate() {
                block[pp * NR + jj] = bv;
            }
        }
    }
}

/// The register-tiled product behind all three layouts, for any `m` and
/// `n >= NR`: `out (+)= A·B` with `a` stored `m x k` (`A_T = false`) or
/// `k x m` (`A_T = true`) and `b` stored `k x n` (`B_T = false`) or `n x k`
/// (`B_T = true`).
///
/// Column panel outer / row tiles inner: the packed `k x NR` panel stays hot
/// in L1 across the whole sweep over `a`'s rows, so total cache traffic is
/// one read of `a` per panel instead of one read of `b` per row block (`b`
/// is the large operand in the batched GRU/projection shapes). Packing
/// makes the panel's loads contiguous whatever `n` is. A product of at most
/// `MR` rows has a single row tile and nothing to amortise a pack over, so
/// it reads `b`'s rows in place when they are stored `k`-major.
fn matmul_layout_tiled<const A_T: bool, const B_T: bool, const ACC: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    dims: (usize, usize, usize),
) {
    let (m, k, n) = dims;
    if k == 0 {
        if !ACC {
            out.fill(0.0);
        }
        return;
    }
    let packed_from = match m {
        1 if !B_T => {
            let wide = sweep_in_place::<1, 64, A_T, ACC>(a, dims, b, out, 0);
            sweep_in_place::<1, NR, A_T, ACC>(a, dims, b, out, wide)
        }
        2 if !B_T => {
            let wide = sweep_in_place::<2, 32, A_T, ACC>(a, dims, b, out, 0);
            sweep_in_place::<2, NR, A_T, ACC>(a, dims, b, out, wide)
        }
        3 if !B_T => sweep_in_place::<3, NR, A_T, ACC>(a, dims, b, out, 0),
        4 if !B_T => sweep_in_place::<4, NR, A_T, ACC>(a, dims, b, out, 0),
        _ => 0,
    };
    with_panel(k * NR, |panel| {
        for j0 in (packed_from..n).step_by(NR) {
            let width = NR.min(n - j0);
            if B_T {
                pack_rows_transposed(b, k, j0, width, panel);
            } else {
                pack_cols(b, n, j0, width, panel);
            }
            sweep_panel::<A_T, ACC>(a, dims, panel, out, j0, width);
        }
    });
}

/// A right-hand matmul operand packed once into the micro-kernel's panel
/// layout, for products that reuse it many times — the recurrent weight
/// `U` across every step of a training pass ([`crate::Tape::gru_sequence`]
/// packs `U` for the forward `h·U` and `Uᵀ` for the backward `dgh·Uᵀ` once
/// per pass; a scoring model packs it once for all its waves and single
/// steps; the on-the-fly kernels re-pack per call). Results are bit for
/// bit those of [`Tensor::matmul_into`] / [`Tensor::matmul_t_into`] on the
/// unpacked operand: same panels, same micro-kernel — at one and two rows
/// run across four and two panels at once, where a single panel's tile
/// would be two or four accumulator chains waiting on their own latency.
///
/// The panels live in a caller-provided [`Tensor`] of
/// [`PackedRhs::storage_shape`] so a pool can own the memory.
#[derive(Debug)]
pub struct PackedRhs {
    k: usize,
    n: usize,
    /// `ceil(n / NR)` panels of `k x NR`, the last zero-padded.
    panels: Tensor,
}

impl PackedRhs {
    /// Shape of the storage tensor a `k x n` operand packs into.
    pub fn storage_shape(k: usize, n: usize) -> (usize, usize) {
        (n.div_ceil(NR) * k, NR)
    }

    /// Packs `b` (`k x n`) as the right operand of `A·B`.
    ///
    /// # Panics
    /// Panics if `storage` is not of [`PackedRhs::storage_shape`].
    pub fn pack(b: &Tensor, storage: Tensor) -> Self {
        let (k, n) = b.shape();
        Self::pack_with(k, n, storage, |j0, width, panel| pack_cols(&b.data, n, j0, width, panel))
    }

    /// Packs `bt` (`n x k`) as the right operand of `A·Bᵀ` — the operand
    /// [`Tensor::matmul_t_into`] takes, packed transposed.
    ///
    /// # Panics
    /// Panics if `storage` is not of [`PackedRhs::storage_shape`].
    pub fn pack_transposed(bt: &Tensor, storage: Tensor) -> Self {
        let (n, k) = bt.shape();
        Self::pack_with(k, n, storage, |j0, width, panel| {
            pack_rows_transposed(&bt.data, k, j0, width, panel)
        })
    }

    fn pack_with(
        k: usize,
        n: usize,
        mut panels: Tensor,
        pack_panel: impl Fn(usize, usize, &mut [f32]),
    ) -> Self {
        assert_eq!(panels.shape(), Self::storage_shape(k, n), "PackedRhs: bad storage shape");
        for j0 in (0..n).step_by(NR) {
            pack_panel(j0, NR.min(n - j0), &mut panels.data[j0 * k..(j0 + NR) * k]);
        }
        PackedRhs { k, n, panels }
    }

    /// Gives the storage tensor back (to recycle it).
    pub fn into_storage(self) -> Tensor {
        self.panels
    }

    /// Heap footprint of the packed panels in bytes.
    pub fn bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// `out = a · B` for the row-major `m x k` slice `a`; `out` is `m x n`.
    ///
    /// # Panics
    /// Panics if the slice lengths do not describe the same `m`.
    pub fn matmul_into(&self, a: &[f32], out: &mut [f32]) {
        self.product::<false>(a, out);
    }

    /// `out += a · B`, continuing each element's `mul_add` chain from the
    /// value already in `out`.
    ///
    /// # Panics
    /// Panics if the slice lengths do not describe the same `m`.
    pub fn matmul_acc_into(&self, a: &[f32], out: &mut [f32]) {
        self.product::<true>(a, out);
    }

    fn product<const ACC: bool>(&self, a: &[f32], out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        if n == 0 {
            return;
        }
        let m = out.len() / n;
        assert_eq!(out.len(), m * n, "PackedRhs: output is not m x {n}");
        assert_eq!(a.len(), m * k, "PackedRhs: left operand is not {m} x {k}");
        // One or two rows are one short tile per panel: take them across
        // neighbouring panels while whole groups of full panels last.
        let from = match m {
            1 => {
                let wide = self.sweep_short::<1, 4, ACC>(a, out, 0);
                self.sweep_short::<1, 2, ACC>(a, out, wide)
            }
            2 => self.sweep_short::<2, 2, ACC>(a, out, 0),
            _ => 0,
        };
        for j0 in (from..n).step_by(NR) {
            let panel = &self.panels.data[j0 * k..(j0 + NR) * k];
            sweep_panel::<false, ACC>(a, (m, k, n), panel, out, j0, NR.min(n - j0));
        }
    }

    /// Covers as many whole groups of `PANELS` full-width panels from column
    /// `from` on as fit with [`multi_panel_tile`]s of all `ROWS` rows of
    /// `a`, and returns the first column left over.
    fn sweep_short<const ROWS: usize, const PANELS: usize, const ACC: bool>(
        &self,
        a: &[f32],
        out: &mut [f32],
        from: usize,
    ) -> usize {
        let (k, n) = (self.k, self.n);
        let width = PANELS * NR;
        let end = from + (n - n % NR - from) / width * width;
        for j0 in (from..end).step_by(width) {
            let panels = &self.panels.data[j0 * k..(j0 + width) * k];
            multi_panel_tile::<ROWS, PANELS, ACC>(a, k, panels, &mut out[j0..], n);
        }
        end
    }
}

/// One draw of the Box-Muller transform: two independent `N(0, 1)` samples.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    // Avoid u1 == 0 which would make ln(u1) = -inf.
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Tensor::from_vec(2, 3, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_t_matches_matmul_with_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(3, 5, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(4, 5, -1.0, 1.0, &mut rng);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_t(&b);
        for (x, y) in via_t.data().iter().zip(direct.data().iter()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_t_tiled_matches_naive_bitwise() {
        // Shapes straddling the MR/NR boundaries force both the tiled main
        // loop and its edge paths; the naive single-row path must agree
        // exactly.
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(4, 3, 16), (5, 7, 17), (8, 1, 33), (4, 9, 16), (7, 5, 19)] {
            let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(n, k, -1.0, 1.0, &mut rng);
            let tiled = a.matmul_t(&b);
            for i in 0..m {
                let row = Tensor::from_vec(1, k, a.row(i).to_vec());
                let naive = row.matmul_t(&b);
                assert_eq!(tiled.row(i), naive.row(0), "({m},{k},{n}) row {i}");
            }
        }
    }

    #[test]
    fn few_row_products_match_the_scalar_chain_bitwise() {
        // Products of at most MR rows read the right operand in place with
        // tiles 64, 32 or 16 columns wide; widths straddling those (and a
        // ragged tail) must give the ascending-k chain of every element, in
        // `A·B` and `Aᵀ·B`, plain and accumulating.
        let mut rng = StdRng::seed_from_u64(13);
        for m in 1..=MR + 1 {
            for n in [16, 31, 32, 48, 64, 65, 100, 144] {
                for k in [0, 1, 7, 24] {
                    let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
                    let b = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
                    let init = Tensor::rand_uniform(m, n, -1.0, 1.0, &mut rng);
                    let chain = |seed: &Tensor| {
                        let mut want = seed.clone();
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = seed.get(i, j);
                                for p in 0..k {
                                    acc = a.get(i, p).mul_add(b.get(p, j), acc);
                                }
                                want.set(i, j, acc);
                            }
                        }
                        want
                    };
                    let at = a.transpose();
                    assert_eq!(a.matmul(&b), chain(&Tensor::zeros(m, n)), "A·B ({m},{k},{n})");
                    assert_eq!(at.matmul_tn(&b), chain(&Tensor::zeros(m, n)), "Aᵀ·B ({m},{k},{n})");
                    let mut out = init.clone();
                    a.matmul_acc_into(&b, &mut out);
                    assert_eq!(out, chain(&init), "A·B acc ({m},{k},{n})");
                    let mut out = init.clone();
                    at.matmul_tn_acc_into(&b, &mut out);
                    assert_eq!(out, chain(&init), "Aᵀ·B acc ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn matmul_tn_matches_transpose_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        for (p, m, n) in [(3, 2, 2), (5, 4, 16), (7, 5, 17), (1, 4, 16), (6, 3, 33)] {
            let a = Tensor::rand_uniform(p, m, -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(p, n, -1.0, 1.0, &mut rng);
            let direct = a.matmul_tn(&b);
            let via_t = a.transpose().matmul(&b);
            assert_eq!(direct.shape(), (m, n));
            assert_eq!(direct.data(), via_t.data(), "({p},{m},{n})");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(4, 6, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_rows_picks_expected() {
        let t = Tensor::from_vec(3, 2, vec![0., 1., 10., 11., 20., 21.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[20., 21., 0., 1., 20., 21.]);
    }

    #[test]
    fn randn_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(100, 100, 0.5, 2.0, &mut rng);
        let n = t.len() as f64;
        let mean = t.sum() / n;
        let var = t.data().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        // n = 10_000 draws of N(0.5, 2^2): the sample mean has std 0.02, the
        // sample variance std ~0.057; allow ±5 sigma.
        assert!((mean - 0.5).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.add_scaled(&b, 0.5);
        assert!(a.data().iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(1, 3);
        assert!(t.all_finite());
        t.set(0, 1, f32::NAN);
        assert!(!t.all_finite());
    }
}
