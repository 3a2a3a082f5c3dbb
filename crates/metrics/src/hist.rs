//! Lock-free log-linear histograms for hot-path latency recording.
//!
//! The bucket layout is the classic HDR shape: one linear run for small
//! values, then one 32-bucket sub-linear run per power-of-two octave, so
//! any `u64` maps to one of [`BUCKETS`] buckets with at most ~3.2%
//! relative error while [`Histogram::record`] stays a handful of relaxed
//! `fetch_add`s — cheap enough for a shard worker's scoring loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^`[`SUB_BITS`]).
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total buckets in a histogram. Values `0..32` get exact buckets (the
/// "octave 0" linear run); each of the remaining 59 octaves up to
/// `u64::MAX` gets [`SUB_COUNT`] sub-buckets, for `60 * 32` in all.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Maps a value to its bucket. Total over all of `u64`: values below
/// [`SUB_COUNT`] map exactly, everything else lands in the sub-bucket
/// whose width is `2^(octave-1) / SUB_COUNT` of its octave.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB_COUNT - 1);
    octave * SUB_COUNT + sub
}

/// Smallest value that lands in bucket `i` (the bucket's inclusive lower
/// bound). Inverse of [`bucket_index`] up to bucket resolution.
///
/// # Panics
/// Panics if `i >= BUCKETS`.
#[inline]
pub(crate) fn bucket_floor(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < SUB_COUNT {
        return i as u64;
    }
    let octave = (i / SUB_COUNT) as u32;
    let sub = (i % SUB_COUNT) as u64;
    (SUB_COUNT as u64 + sub) << (octave - 1)
}

/// Largest value that lands in bucket `i` (the bucket's inclusive upper
/// bound); `u64::MAX` for the final bucket.
///
/// # Panics
/// Panics if `i >= BUCKETS`.
#[inline]
pub(crate) fn bucket_ceil(i: usize) -> u64 {
    if i + 1 == BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

/// A lock-free log-linear histogram.
///
/// Recording is wait-free: a relaxed `fetch_add` on the value's bucket
/// plus relaxed updates of the running sum and min/max. Concurrent
/// recorders never block each other or readers; [`Histogram::snapshot`]
/// can run at any time and sees some valid interleaving of the updates
/// (bucket counts are exact — only `sum`/`min`/`max` may trail the
/// buckets by in-flight recordings).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v`. Wait-free; safe to call from any
    /// number of threads concurrently.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` in one shot — what
    /// a shard worker uses to attribute a micro-batch wave's latency to
    /// every segment it scored without `n` separate updates.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Wraps this histogram in a [`DeferredHistogram`] staging cell.
    pub fn deferred(self: &std::sync::Arc<Self>) -> DeferredHistogram {
        DeferredHistogram { hist: std::sync::Arc::clone(self), staged: None }
    }

    /// A point-in-time copy of the bucket counts. The snapshot's total
    /// count is derived from the buckets themselves, so it is always
    /// exactly the sum of its counts — the invariant the merge and codec
    /// layers build on.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = counts.iter().fold(0u64, |acc, &c| acc.wrapping_add(c));
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state: dense bucket counts plus
/// the running sum and observed min/max.
///
/// Merging snapshots is element-wise `u64` addition, which is exactly
/// associative and commutative — the property that lets the router merge
/// backend histograms over the wire into the same bits an in-process
/// aggregation would produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; always [`BUCKETS`] long.
    pub counts: Vec<u64>,
    /// Total observations (always the sum of `counts`).
    pub count: u64,
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value; `u64::MAX` when empty.
    pub min: u64,
    /// Largest recorded value; `0` when empty.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// The snapshot of a histogram that has recorded nothing — the
    /// identity element of [`HistogramSnapshot::merge`].
    pub fn empty() -> Self {
        HistogramSnapshot { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`: bucket-wise (wrapping) addition, summed
    /// totals, widened min/max. Exactly associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.wrapping_add(*b);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Merges any number of snapshots into one. Merging an empty slice
    /// yields [`HistogramSnapshot::empty`].
    pub fn merged(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Value at quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket holding that rank (clamped to the observed max), so the
    /// answer reads as "q of observations were ≤ this" with at most the
    /// bucket's ~3.2% relative error. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean of recorded values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A single-owner staging cell in front of a shared [`Histogram`], for
/// recorders that measure work which *ends* by publishing a snapshot of
/// the registry the histogram lives in.
///
/// The problem it encodes: an event-loop tick that answers a metrics
/// request cannot record its own duration inline — the sample would land
/// *after* the snapshot it just served but *before* any later observer
/// reads the registry, making the served snapshot unequal to the registry
/// at an otherwise quiesced moment. Staging breaks the race by
/// construction: [`DeferredHistogram::stage`] buffers the sample locally
/// (no shared-state effect), and the *next* [`DeferredHistogram::stage`]
/// or an explicit [`DeferredHistogram::commit`] publishes the previous
/// one — strictly before whatever that next unit of work observes. A
/// quiesced registry therefore never changes between two reads, however
/// the last unit of work was measured.
#[derive(Debug)]
pub struct DeferredHistogram {
    hist: std::sync::Arc<Histogram>,
    staged: Option<u64>,
}

impl DeferredHistogram {
    /// Publishes the previously staged sample (if any), then stages `v`
    /// to be published by the next call.
    pub fn stage(&mut self, v: u64) {
        self.commit();
        self.staged = Some(v);
    }

    /// Publishes the staged sample now, leaving nothing staged. Call at
    /// the *start* of a unit of work; samples staged by the final unit
    /// before a quiet period intentionally stay unpublished.
    pub fn commit(&mut self) {
        if let Some(v) = self.staged.take() {
            self.hist.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        // Exact linear run.
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Octave boundaries are continuous: floor(i) maps back to i and
        // ceil(i) stays in i.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_ceil(i)), i, "ceil of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Monotone along a sweep of magnitudes.
        let mut last = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= last, "bucket_index regressed at {v}");
            last = i;
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn deferred_samples_publish_one_unit_of_work_late() {
        let h = std::sync::Arc::new(Histogram::new());
        let mut d = h.deferred();
        d.stage(10);
        // The work that staged 10 may have published a snapshot; 10 must
        // not be visible yet.
        assert_eq!(h.snapshot().count, 0);
        d.stage(20); // next unit of work publishes the previous sample
        assert_eq!(h.snapshot().count, 1);
        d.commit();
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 30);
        // Commit with nothing staged is a no-op, and the registry stays
        // frozen across repeated reads of a quiet period.
        d.commit();
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket upper bound overestimates any member by at most one
        // sub-bucket width, i.e. < 1/SUB_COUNT relative error ≈ 3.2%.
        let mut v = SUB_COUNT as u64;
        for _ in 0..100_000 {
            let i = bucket_index(v);
            let err = (bucket_ceil(i) - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64 + 1e-12, "err {err} at {v}");
            v = v.wrapping_mul(7).wrapping_add(13) % (u64::MAX / 2) + SUB_COUNT as u64;
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // Quantiles land within one bucket (~3.2%) of the exact answer.
        for (q, exact) in [(0.5, 500u64), (0.99, 990), (0.999, 999)] {
            let got = s.quantile(q);
            assert!(got >= exact, "q{q}: {got} < {exact}");
            assert!(got as f64 <= exact as f64 * 1.04 + 1.0, "q{q}: {got} too high");
        }
        // Degenerate quantile calls stay total.
        assert_eq!(HistogramSnapshot::empty().quantile(0.99), 0);
        assert_eq!(s.quantile(0.0), 1); // clamps to rank 1 = the minimum
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn record_n_matches_loop() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(77, 5);
        a.record_n(3, 2);
        a.record_n(9999, 0); // no-op
        for _ in 0..5 {
            b.record(77);
        }
        for _ in 0..2 {
            b.record(3);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn merge_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for v in [1u64, 40, 40, 1_000_000, 17] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 40, 5_000_000_000] {
            b.record(v);
            whole.record(v);
        }
        let merged = HistogramSnapshot::merged(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged, whole.snapshot());
        // Identity element.
        let with_empty = HistogramSnapshot::merged(&[merged.clone(), HistogramSnapshot::empty()]);
        assert_eq!(with_empty, merged);
    }

    #[test]
    fn concurrent_recorders_are_exactly_counted() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(i * 37 + t);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        assert_eq!(s.counts.iter().sum::<u64>(), threads * per);
    }
}
