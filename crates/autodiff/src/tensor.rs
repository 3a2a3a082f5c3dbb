//! Dense row-major 2-D `f32` tensor.
//!
//! This is the single value type flowing through the autodiff [`crate::Tape`].
//! Vectors are represented as `1 x n` tensors. The three matmul layouts the
//! models need — `A·B` ([`Tensor::matmul_into`]), `A·Bᵀ`
//! ([`Tensor::matmul_t_into`]) and `Aᵀ·B` ([`Tensor::matmul_tn_into`]) — all
//! share the same register-tiled, panel-packed FMA micro-kernel for
//! multi-row shapes and fall back to streaming `ikj`-style loops otherwise.
//!
//! Every kernel accumulates each output element over the inner dimension in
//! ascending order with `mul_add`, in both the tiled and the scalar paths,
//! so results are **bit-identical** across paths and across batch
//! row-stacking (verified by the `matmul_kernels` proptest battery).

use rand::Rng;

/// Row-tile height of the register-tiled matmul micro-kernel.
pub(crate) const MR: usize = 4;
/// Column-tile width of the register-tiled matmul micro-kernel (two
/// 256-bit vectors of `f32`; with `MR = 4` the 8 accumulators fit the
/// AVX2 register file without spills).
const NR: usize = 16;

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

    /// Changes the row count in place, keeping the column width: trailing
    /// rows are dropped, new rows are zero. Shrinking (and growing back
    /// within the original allocation) does not reallocate, so a scratch
    /// matrix sized for a full row tile can serve a shorter last tile.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
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
    /// Multi-row inputs go through a register-tiled micro-kernel
    /// (`MR x NR` output tiles accumulated in registers, `k` innermost);
    /// single rows use the `ikj` streaming loop. Both accumulate each
    /// output element over `p = 0..k` in ascending order, so results are
    /// bit-identical between the two paths — batched inference that stacks
    /// rows gives exactly the per-row results.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let (k2, n) = other.shape();
        assert_eq!(k, k2, "matmul: inner dimensions {k} vs {k2}");
        assert_eq!(out.shape(), (m, n), "matmul: bad output shape");
        if m >= MR && n >= NR {
            return self.matmul_into_tiled(other, out);
        }
        out.fill_zero();
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = a.mul_add(b, *o);
                }
            }
        }
    }

    /// Register-tiled matmul: full `MR x NR` tiles keep their accumulators
    /// in registers across the whole `k` loop (the inner `NR` loop
    /// vectorises; `b`'s row slice is reused by all `MR` rows), edges fall
    /// back to scalar loops with the same per-element accumulation order.
    fn matmul_into_tiled(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let n = other.cols();
        let a = &self.data;
        let b = &other.data;
        let main_m = m - m % MR;
        let main_n = n - n % NR;

        // `j0` outer / `i0` inner: the packed `k x NR` panel of `b` stays
        // hot in L1 across the whole sweep over `a`'s rows, so total cache
        // traffic is one read of `a` per column panel instead of one read
        // of `b` per row block (`b` is the large operand in the batched
        // GRU/projection shapes). Packing makes the panel's loads
        // contiguous and cache-line aligned regardless of `n`.
        with_panel(k * NR, |panel| {
            let mut j0 = 0;
            while j0 < main_n {
                for p in 0..k {
                    panel[p * NR..(p + 1) * NR].copy_from_slice(&b[p * n + j0..p * n + j0 + NR]);
                }
                let mut i0 = 0;
                while i0 < main_m {
                    // Fixed-length row views let the compiler elide bounds
                    // checks in the p-loop below.
                    let a_rows: [&[f32]; MR] =
                        std::array::from_fn(|di| &a[(i0 + di) * k..(i0 + di) * k + k]);
                    let mut acc = [[0.0f32; NR]; MR];
                    for (p, b_chunk) in panel.chunks_exact(NR).enumerate() {
                        let b_chunk: &[f32; NR] = b_chunk.try_into().expect("NR-wide");
                        for (di, acc_row) in acc.iter_mut().enumerate() {
                            let av = a_rows[di][p];
                            for (o, &bv) in acc_row.iter_mut().zip(b_chunk) {
                                *o = av.mul_add(bv, *o);
                            }
                        }
                    }
                    for (di, acc_row) in acc.iter().enumerate() {
                        out.data[(i0 + di) * n + j0..(i0 + di) * n + j0 + NR]
                            .copy_from_slice(acc_row);
                    }
                    i0 += MR;
                }
                j0 += NR;
            }
        });

        // Right edge (all rows, trailing columns) and bottom edge
        // (trailing rows, all columns): plain k-ascending loops.
        for i in 0..m {
            let (j_start, j_end) = if i < main_m { (main_n, n) } else { (0, n) };
            if j_start == j_end {
                continue;
            }
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out.data[i * n + j_start..i * n + j_end];
            out_row.iter_mut().for_each(|o| *o = 0.0);
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n + j_start..p * n + j_end];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = av.mul_add(bv, *o);
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
    /// Multi-row inputs go through the same register-tiled micro-kernel as
    /// [`Tensor::matmul_into`] (the `NR`-wide panel of `other` is packed
    /// transposed); single rows keep the streaming dot-product loop. Both
    /// paths accumulate over `k` in ascending order, so results are
    /// bit-identical.
    pub fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let (n, k2) = other.shape();
        assert_eq!(k, k2, "matmul_t: inner dimensions {k} vs {k2}");
        assert_eq!(out.shape(), (m, n), "matmul_t: bad output shape");
        if m >= MR && n >= NR {
            return self.matmul_t_into_tiled::<false>(other, out);
        }
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc = a.mul_add(b, acc);
                }
                out.data[i * n + j] = acc;
            }
        }
    }

    /// Register-tiled `A·Bᵀ`: identical tile structure to
    /// [`Tensor::matmul_into_tiled`], except the `k x NR` panel is packed
    /// from `NR` *rows* of `other` (a small transpose) instead of `NR`
    /// columns. The packing is the only difference — the micro-kernel and
    /// its accumulation order are shared, so `a.matmul_t(b)` equals
    /// `a.matmul(&b.transpose())` bit for bit.
    fn matmul_t_into_tiled<const ACC: bool>(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let n = other.rows();
        let a = &self.data;
        let b = &other.data;
        let main_m = m - m % MR;
        let main_n = n - n % NR;

        with_panel(k * NR, |panel| {
            let mut j0 = 0;
            while j0 < main_n {
                // panel[p][jj] = b[(j0 + jj)][p]: transpose NR rows of
                // `other` into the k-major layout the shared micro-kernel
                // streams.
                for jj in 0..NR {
                    let b_row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &bv) in b_row.iter().enumerate() {
                        panel[p * NR + jj] = bv;
                    }
                }
                let mut i0 = 0;
                while i0 < main_m {
                    let a_rows: [&[f32]; MR] =
                        std::array::from_fn(|di| &a[(i0 + di) * k..(i0 + di) * k + k]);
                    let mut acc = [[0.0f32; NR]; MR];
                    if ACC {
                        for (di, acc_row) in acc.iter_mut().enumerate() {
                            acc_row.copy_from_slice(
                                &out.data[(i0 + di) * n + j0..(i0 + di) * n + j0 + NR],
                            );
                        }
                    }
                    for (p, b_chunk) in panel.chunks_exact(NR).enumerate() {
                        let b_chunk: &[f32; NR] = b_chunk.try_into().expect("NR-wide");
                        for (di, acc_row) in acc.iter_mut().enumerate() {
                            let av = a_rows[di][p];
                            for (o, &bv) in acc_row.iter_mut().zip(b_chunk) {
                                *o = av.mul_add(bv, *o);
                            }
                        }
                    }
                    for (di, acc_row) in acc.iter().enumerate() {
                        out.data[(i0 + di) * n + j0..(i0 + di) * n + j0 + NR]
                            .copy_from_slice(acc_row);
                    }
                    i0 += MR;
                }
                j0 += NR;
            }
        });

        // Right edge (all rows, trailing columns of `out` = trailing rows of
        // `other`) and bottom edge: contiguous-row dot products, identical
        // accumulation order to the single-row path.
        for i in 0..m {
            let (j_start, j_end) = if i < main_m { (main_n, n) } else { (0, n) };
            let a_row = &a[i * k..(i + 1) * k];
            for j in j_start..j_end {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = if ACC { out.data[i * n + j] } else { 0.0f32 };
                for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                    acc = av.mul_add(bv, acc);
                }
                out.data[i * n + j] = acc;
            }
        }
    }

    /// Convenience allocating wrapper around [`Tensor::matmul_t_into`].
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `out += self * other^T` (accumulating [`Tensor::matmul_t_into`]).
    ///
    /// Gradient accumulation form: recurrent backward steps add straight
    /// into the shared gradient slot instead of materialising a fresh
    /// product and an extra add pass. The running value continues the same
    /// ascending-`k` `mul_add` chain.
    pub fn matmul_t_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        let (m, k) = self.shape();
        let (n, k2) = other.shape();
        assert_eq!(k, k2, "matmul_t_acc: inner dimensions {k} vs {k2}");
        assert_eq!(out.shape(), (m, n), "matmul_t_acc: bad output shape");
        if m >= MR && n >= NR {
            return self.matmul_t_into_tiled::<true>(other, out);
        }
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = out.data[i * n + j];
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc = a.mul_add(b, acc);
                }
                out.data[i * n + j] = acc;
            }
        }
    }

    /// `out += self^T * other` (accumulating [`Tensor::matmul_tn_into`]).
    /// Same outer-product loop; the existing `out` contents seed the
    /// accumulators.
    pub fn matmul_tn_acc_into(&self, other: &Tensor, out: &mut Tensor) {
        let (p, m) = self.shape();
        let (p2, n) = other.shape();
        assert_eq!(p, p2, "matmul_tn_acc: outer dimensions {p} vs {p2}");
        assert_eq!(out.shape(), (m, n), "matmul_tn_acc: bad output shape");
        if m >= MR && n >= NR {
            return self.matmul_tn_into_tiled::<true>(other, out);
        }
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

    /// `out = self^T * other` where `self` is `p x m` and `other` is `p x n`.
    ///
    /// This is the gradient kernel of the tape's matmul rules
    /// (`dB = Aᵀ·g`, `dBᵀ = gᵀ·A`): it reads both operands in their stored
    /// row-major layout, so the backward pass never materialises an explicit
    /// [`Tensor::transpose`] copy. Accumulation per output element runs over
    /// `p` in ascending order with `mul_add` in every path, making the
    /// result bit-identical to `self.transpose().matmul(other)`.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        let (p, m) = self.shape();
        let (p2, n) = other.shape();
        assert_eq!(p, p2, "matmul_tn: outer dimensions {p} vs {p2}");
        assert_eq!(out.shape(), (m, n), "matmul_tn: bad output shape");
        if m >= MR && n >= NR {
            return self.matmul_tn_into_tiled::<false>(other, out);
        }
        out.fill_zero();
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

    /// Register-tiled `Aᵀ·B`: `MR x NR` output tiles accumulate in
    /// registers over the whole shared dimension `p`; the `p x NR` panel of
    /// `other` is packed once per column block and reused by every row
    /// block, and `out` is written exactly once (the untiled loop would
    /// re-stream the whole output `p` times). Edges fall back to scalar
    /// `p`-ascending dots.
    fn matmul_tn_into_tiled<const ACC: bool>(&self, other: &Tensor, out: &mut Tensor) {
        let (p, m) = self.shape();
        let n = other.cols();
        let a = &self.data;
        let b = &other.data;
        let main_m = m - m % MR;
        let main_n = n - n % NR;

        with_panel(p * NR, |panel| {
            let mut j0 = 0;
            while j0 < main_n {
                for q in 0..p {
                    panel[q * NR..(q + 1) * NR].copy_from_slice(&b[q * n + j0..q * n + j0 + NR]);
                }
                let mut i0 = 0;
                while i0 < main_m {
                    let mut acc = [[0.0f32; NR]; MR];
                    if ACC {
                        for (di, acc_row) in acc.iter_mut().enumerate() {
                            acc_row.copy_from_slice(
                                &out.data[(i0 + di) * n + j0..(i0 + di) * n + j0 + NR],
                            );
                        }
                    }
                    for (q, b_chunk) in panel.chunks_exact(NR).enumerate() {
                        let b_chunk: &[f32; NR] = b_chunk.try_into().expect("NR-wide");
                        // a[q][i0 + di]: one strided load per tile row.
                        let a_row = &a[q * m + i0..q * m + i0 + MR];
                        for (di, acc_row) in acc.iter_mut().enumerate() {
                            let av = a_row[di];
                            for (o, &bv) in acc_row.iter_mut().zip(b_chunk) {
                                *o = av.mul_add(bv, *o);
                            }
                        }
                    }
                    for (di, acc_row) in acc.iter().enumerate() {
                        out.data[(i0 + di) * n + j0..(i0 + di) * n + j0 + NR]
                            .copy_from_slice(acc_row);
                    }
                    i0 += MR;
                }
                j0 += NR;
            }
        });

        // Edges: scalar dots over `p` (both loads strided; edge areas are
        // at most `MR - 1` rows / `NR - 1` columns wide).
        for i in 0..m {
            let (j_start, j_end) = if i < main_m { (main_n, n) } else { (0, n) };
            for j in j_start..j_end {
                let mut acc = if ACC { out.data[i * n + j] } else { 0.0f32 };
                for q in 0..p {
                    acc = a[q * m + i].mul_add(b[q * n + j], acc);
                }
                out.data[i * n + j] = acc;
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

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
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
