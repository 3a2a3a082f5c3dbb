//! Size-classed tensor buffer pool.
//!
//! The tape's forward pass and `backward()` both churn through short-lived
//! tensors (gate activations, logits, gradients). [`TensorPool`] keeps the
//! freed buffers so a training pass reuses the last one's instead of
//! allocating its own.
//!
//! Training shapes do not repeat exactly: a batch is ragged, so the
//! `tokens x rp_latent` family (and with it every `tokens x hidden` and
//! `tokens x vocab` buffer) has a different row count every chunk. Every
//! element count therefore keys its power-of-two class, not its exact size
//! — a freed `127 x 32` buffer serves the next `126 x 32` take, and a freed
//! `4 x 12` gradient can come back as a `1 x 48` bias row. A recycled
//! buffer too small for a take grows to exactly that take, never by
//! doubling, and that is a miss. A take gets the idle buffer of lowest
//! rank (allocation order), so a pass of the last one's shapes gets the
//! buffers that pass had, each already grown to its take.
//!
//! The pool keeps only what it lent. The tape hands back the buffers it
//! took, never a caller's tensor, and the end of each pass (the tape's
//! reset) trims each class to the buffers it lent during the pass — as
//! many as were out at once: a pass of the same shapes finds every buffer
//! it needs and allocates nothing, while a class the pass did not use — a
//! ragged shape from an earlier batch — is let go instead of idling beside
//! the ones in use. Each class's idle list is also capped, so retention
//! stays bounded under adversarial shape sequences within one pass. Contents
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
    classes: HashMap<usize, Class>,
    hits: u64,
    misses: u64,
    /// The rank the next buffer the pool allocates gets.
    next_rank: u64,
}

/// One power-of-two class: its idle buffers and the ones it has out, with
/// their ranks.
#[derive(Debug, Default)]
struct Class {
    idle: Vec<(u64, Vec<f32>)>,
    /// `(address, rank)` of each buffer out.
    out: Vec<(usize, u64)>,
    /// The most buffers out at once since the last [`TensorPool::end_pass`].
    high: usize,
}

impl TensorPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows x cols` tensor with **arbitrary contents** (recycled data or
    /// zeros). Only use when every element is overwritten before being read.
    /// An empty tensor is not pooled.
    pub fn take_scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        if n == 0 {
            return Tensor::zeros(rows, cols);
        }
        let class = self.classes.entry(n.next_power_of_two()).or_default();
        let lowest = (0..class.idle.len()).min_by_key(|&i| class.idle[i].0);
        let (rank, mut buf) = lowest.map_or_else(
            || {
                self.next_rank += 1;
                (self.next_rank, Vec::new())
            },
            |i| class.idle.swap_remove(i),
        );
        // A fresh buffer, or a recycled one grown to the take, allocates.
        if buf.capacity() < n {
            self.misses += 1;
            buf.reserve_exact(n - buf.len());
        } else {
            self.hits += 1;
        }
        buf.resize(n, 0.0);
        class.out.push((buf.as_ptr() as usize, rank));
        class.high = class.high.max(class.out.len());
        Tensor::from_vec(rows, cols, buf)
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

    /// Returns a buffer this pool lent, for reuse. Buffers beyond the
    /// per-class cap are dropped, so idle retention stays bounded even
    /// under adversarial shape sequences.
    pub fn recycle(&mut self, t: Tensor) {
        let n = t.len();
        if n == 0 {
            return;
        }
        let buf = t.into_data();
        let class = self.classes.entry(n.next_power_of_two()).or_default();
        let lent = class.out.iter().position(|&(address, _)| address == buf.as_ptr() as usize);
        // A buffer the pool did not lend ranks last.
        let rank = lent.map_or(u64::MAX, |i| class.out.swap_remove(i).1);
        if class.idle.len() < BUCKET_CAP {
            class.idle.push((rank, buf));
        }
    }

    /// Ends a pass: each class keeps as many idle buffers as it had out at
    /// once since the last call, the lowest ranks — the ones its takes got
    /// — and drops the rest, which the pass never needed.
    pub(crate) fn end_pass(&mut self) {
        self.classes.retain(|_, class| {
            class.idle.sort_unstable_by_key(|&(rank, _)| rank);
            class.idle.truncate(class.high);
            class.high = class.out.len();
            !class.idle.is_empty() || !class.out.is_empty()
        });
    }

    /// Number of takes served from the free list without allocating.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of takes that allocated: a fresh buffer or a grown one.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
impl TensorPool {
    /// Per class, the heap bytes of its idle buffers.
    pub(crate) fn idle_bytes(&self) -> HashMap<usize, usize> {
        let bytes = |class: &Class| class.idle.iter().map(|(_, b)| 4 * b.capacity()).sum();
        self.classes.iter().map(|(&c, class)| (c, bytes(class))).collect()
    }

    /// Per class, the most bytes it had out at once since the last
    /// [`TensorPool::end_pass`], a buffer counted at its class's size.
    pub(crate) fn peak_lent_bytes(&self) -> HashMap<usize, usize> {
        self.classes.iter().map(|(&c, class)| (c, 4 * c * class.high)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of buffers currently parked in the pool.
    fn idle_buffers(pool: &TensorPool) -> usize {
        pool.classes.values().map(|class| class.idle.len()).sum()
    }

    #[test]
    fn recycle_then_take_reuses_buffer() {
        let mut pool = TensorPool::new();
        let t = pool.take_zeroed(2, 3);
        assert_eq!(pool.misses(), 1);
        pool.recycle(t);
        assert_eq!(idle_buffers(&pool), 1);
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
        assert_eq!(idle_buffers(&pool), 0);
    }

    #[test]
    fn ragged_small_sizes_reuse_one_buffer() {
        // A batch's `tokens x rp_latent` rows shrink by one from one
        // chunk to the next: one buffer serves both.
        let mut pool = TensorPool::new();
        let t = pool.take_scratch(127, 32);
        pool.recycle(t);
        let t2 = pool.take_zeroed(126, 32);
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert_eq!(t2.shape(), (126, 32));
        assert!(t2.data().iter().all(|&x| x == 0.0));
        pool.recycle(t2);
        assert_eq!(idle_buffers(&pool), 1);
    }

    #[test]
    fn large_ragged_sizes_share_one_bucket() {
        // Ragged `tokens x vocab` CE shapes: the larger take reuses the
        // smaller buffer of its class, grown to exactly its size — and the
        // growth is an allocation, so it counts as a miss.
        let mut pool = TensorPool::new();
        let t = pool.take_zeroed(130, 514);
        pool.recycle(t);
        let t2 = pool.take_zeroed(140, 514);
        assert_eq!((pool.hits(), pool.misses()), (0, 2), "a grow is a miss");
        assert_eq!(t2.shape(), (140, 514));
        assert!(t2.data().iter().all(|&x| x == 0.0));
        assert_eq!(t2.into_data().capacity(), 140 * 514, "grown exactly, not doubled");
    }

    #[test]
    fn growing_a_recycled_buffer_counts_as_a_miss() {
        // 92 and 128 elements share the 128 class, but the recycled
        // buffer holds 92: serving the larger take reallocates it.
        let mut pool = TensorPool::new();
        let t = pool.take_scratch(92, 1);
        pool.recycle(t);
        let t2 = pool.take_scratch(128, 1);
        assert_eq!((pool.hits(), pool.misses()), (0, 2));
        assert_eq!(t2.into_data().capacity(), 128, "grown exactly, not doubled");
    }

    #[test]
    fn a_repeated_ragged_pass_allocates_nothing() {
        // The sizes and order of the takes the whole-recurrence node makes
        // in one 2048 class. Handing out the most recently freed buffer,
        // the second pass gives the 1360 take the buffer grown to 1920 in
        // the first, and grows another for the 1920 take.
        let mut pool = TensorPool::new();
        let pass = |pool: &mut TensorPool| {
            let a = pool.take_scratch(1280, 1);
            let b = pool.take_scratch(1360, 1);
            pool.recycle(a);
            let c = pool.take_scratch(1920, 1);
            let d = pool.take_scratch(1200, 1);
            [d, c, b].into_iter().for_each(|t| pool.recycle(t));
            pool.end_pass();
            pool.misses()
        };
        let warm = pass(&mut pool);
        assert_eq!(pass(&mut pool), warm, "the second pass allocated");
        assert_eq!(pass(&mut pool), warm);
    }

    #[test]
    fn bucket_cap_bounds_idle_retention() {
        let mut pool = TensorPool::new();
        for _ in 0..(BUCKET_CAP + 10) {
            pool.recycle(Tensor::zeros(1, 8));
        }
        assert_eq!(idle_buffers(&pool), BUCKET_CAP);
    }
}
