//! Size-classed tensor buffer pool.
//!
//! The tape's forward pass and `backward()` both churn through short-lived
//! tensors (gate activations, logits, gradients). [`TensorPool`] keeps the
//! freed buffers so a training pass reuses the last one's instead of
//! allocating its own.
//!
//! Training shapes do not repeat exactly: a micro-batch is ragged, so the
//! `tokens x rp_latent` family (and with it every `tokens x hidden` and
//! `tokens x vocab` buffer) has a different row count every chunk. Every
//! element count therefore keys its power-of-two class, not its exact size
//! — a freed `127 x 32` buffer serves the next `126 x 32` take, and a freed
//! `4 x 12` gradient can come back as a `1 x 48` bias row. A recycled
//! buffer too small for a take grows to exactly that take, never by
//! doubling, and each class caps its idle list: the pool holds about one
//! pass's working set, not the union of every shape it has seen. Contents
//! of a recycled buffer are arbitrary; [`TensorPool::take_scratch`] hands
//! them out as-is for callers that overwrite every element, while
//! [`TensorPool::take_zeroed`] / [`TensorPool::take_full`] clear them first.

use std::collections::HashMap;

use crate::tensor::Tensor;

/// Idle buffers retained per class; excess recycles are dropped.
const BUCKET_CAP: usize = 32;

/// Reusable buffer pool for [`Tensor`]s, keyed by the power-of-two class
/// of their element count.
#[derive(Debug, Default)]
pub struct TensorPool {
    free: HashMap<usize, Vec<Vec<f32>>>,
    hits: u64,
    misses: u64,
}

impl TensorPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows x cols` tensor with **arbitrary contents** (recycled data or
    /// zeros). Only use when every element is overwritten before being read.
    pub fn take_scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        match self.free.get_mut(&n.next_power_of_two()).and_then(Vec::pop) {
            Some(mut buf) => {
                self.hits += 1;
                buf.reserve_exact(n.saturating_sub(buf.len()));
                buf.resize(n, 0.0);
                Tensor::from_vec(rows, cols, buf)
            }
            None => {
                self.misses += 1;
                Tensor::zeros(rows, cols)
            }
        }
    }

    /// A zero-filled `rows x cols` tensor.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.take_scratch(rows, cols);
        t.fill_zero();
        t
    }

    /// A `rows x cols` tensor with every element set to `value`.
    pub fn take_full(&mut self, rows: usize, cols: usize, value: f32) -> Tensor {
        let mut t = self.take_scratch(rows, cols);
        t.data_mut().iter_mut().for_each(|x| *x = value);
        t
    }

    /// A pooled copy of `src`.
    pub fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.take_scratch(src.rows(), src.cols());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Returns a tensor's buffer to the pool for reuse. Buffers beyond the
    /// per-class cap are dropped, so idle retention stays bounded even
    /// under adversarial shape sequences.
    pub fn recycle(&mut self, t: Tensor) {
        let n = t.len();
        if n == 0 {
            return;
        }
        let idle = self.free.entry(n.next_power_of_two()).or_default();
        if idle.len() < BUCKET_CAP {
            idle.push(t.into_data());
        }
    }

    /// Number of times a take was served from the free list.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of times a take had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of buffers currently parked in the pool.
    pub fn idle_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_then_take_reuses_buffer() {
        let mut pool = TensorPool::new();
        let t = pool.take_zeroed(2, 3);
        assert_eq!(pool.misses(), 1);
        pool.recycle(t);
        assert_eq!(pool.idle_buffers(), 1);
        // Same element count, different shape: still a hit.
        let t2 = pool.take_zeroed(3, 2);
        assert_eq!(pool.hits(), 1);
        assert_eq!(t2.shape(), (3, 2));
        assert!(t2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_full_and_copy_initialise() {
        let mut pool = TensorPool::new();
        let dirty = pool.take_full(1, 4, 7.5);
        assert!(dirty.data().iter().all(|&x| x == 7.5));
        pool.recycle(dirty);
        let ones = pool.take_full(2, 2, 1.0);
        assert!(ones.data().iter().all(|&x| x == 1.0));
        let copy = pool.take_copy(&ones);
        assert_eq!(copy.data(), ones.data());
    }

    #[test]
    fn zero_sized_tensors_are_not_pooled() {
        let mut pool = TensorPool::new();
        pool.recycle(Tensor::zeros(0, 5));
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn ragged_small_sizes_reuse_one_buffer() {
        // A micro-batch's `tokens x rp_latent` rows shrink by one from one
        // chunk to the next: one buffer serves both.
        let mut pool = TensorPool::new();
        let t = pool.take_scratch(127, 32);
        pool.recycle(t);
        let t2 = pool.take_zeroed(126, 32);
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert_eq!(t2.shape(), (126, 32));
        assert!(t2.data().iter().all(|&x| x == 0.0));
        pool.recycle(t2);
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn large_ragged_sizes_share_one_bucket() {
        // Ragged `tokens x vocab` CE shapes: the larger take reuses the
        // smaller buffer of its class, grown to exactly its size.
        let mut pool = TensorPool::new();
        let t = pool.take_zeroed(130, 514);
        pool.recycle(t);
        let t2 = pool.take_zeroed(140, 514);
        assert_eq!(pool.hits(), 1, "ragged large take should hit the class");
        assert_eq!(t2.shape(), (140, 514));
        assert!(t2.data().iter().all(|&x| x == 0.0));
        assert_eq!(t2.into_data().capacity(), 140 * 514, "grown exactly, not doubled");
    }

    #[test]
    fn bucket_cap_bounds_idle_retention() {
        let mut pool = TensorPool::new();
        for _ in 0..(BUCKET_CAP + 10) {
            pool.recycle(Tensor::zeros(1, 8));
        }
        assert_eq!(pool.idle_buffers(), BUCKET_CAP);
    }
}
