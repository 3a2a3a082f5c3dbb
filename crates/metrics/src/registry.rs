//! The metric registry: named counters, gauges, and histograms with
//! point-in-time snapshots that merge across processes.
//!
//! Registration hands back an `Arc` handle; hot paths cache the handle at
//! construction time and record through it with relaxed atomics, so the
//! registry lock is only ever taken at registration and snapshot time —
//! never on a per-event path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge tracking a level (queue depth, live connections, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds `n` (negative to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of live metrics shared across a process tier.
///
/// One registry is typically shared by everything in a process (the serve
/// engine and the net front-end register into the same one), so a single
/// [`Registry::snapshot`] answers a `MetricsRequest` for the whole
/// process. Names are free-form but the workspace convention is
/// dot-separated tiers: `serve.score_latency_ns`, `net.frame_decode_ns`,
/// `router.forward_ns`.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind —
    /// a programmer error, not an input error.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let metric = inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered as a non-counter"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let metric = inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use. Panics if `name` is already registered as a different
    /// kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let metric = inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered as a non-histogram"),
        }
    }

    /// A point-in-time copy of every registered metric, with entries in
    /// name order (deterministic across identical registries).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let entries = inner
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// One recorded value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter's value.
    Counter(u64),
    /// A signed gauge's value.
    Gauge(i64),
    /// A full histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Stable kind tag used for merge keying and the wire codec.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            MetricValue::Counter(_) => 0,
            MetricValue::Gauge(_) => 1,
            MetricValue::Histogram(_) => 2,
        }
    }
}

/// A named metric value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// Registry name (dot-separated by convention).
    pub name: String,
    /// The recorded value.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole [`Registry`], ordered by
/// `(name, kind)` — the unit that travels in a TADN `Metrics` frame and
/// merges across backends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Entries sorted by `(name, kind)`.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Merges per-process snapshots into one fleet view, the same
    /// discipline as `FleetSnapshot::merged`: entries are unioned by
    /// `(name, kind)`; counters and gauges add, histograms merge
    /// bucket-wise. All of it is `u64`/`i64` (wrapping) addition, so the
    /// merge is exactly associative and commutative — wire-merged fleet
    /// histograms come out bit-identical to an in-process aggregation.
    /// Merging an empty slice yields the empty snapshot.
    pub fn merged(parts: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut map: BTreeMap<(String, u8), MetricValue> = BTreeMap::new();
        for part in parts {
            for entry in &part.entries {
                let key = (entry.name.clone(), entry.value.kind());
                match map.entry(key) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(entry.value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        match (slot.get_mut(), &entry.value) {
                            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                                *a = a.wrapping_add(*b);
                            }
                            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                                *a = a.wrapping_add(*b);
                            }
                            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                a.merge(b);
                            }
                            // Keyed by kind, so mismatches cannot occur.
                            _ => unreachable!("merge key includes the metric kind"),
                        }
                    }
                }
            }
        }
        MetricsSnapshot {
            entries: map
                .into_iter()
                .map(|((name, _), value)| MetricEntry { name, value })
                .collect(),
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Histogram(h) if e.name == name => Some(h),
            _ => None,
        })
    }

    /// Looks up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|e| match &e.value {
            MetricValue::Gauge(v) if e.name == name => Some(*v),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_returns_shared_handles() {
        let reg = Registry::new();
        let c1 = reg.counter("net.backpressure_replies");
        let c2 = reg.counter("net.backpressure_replies");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        let g = reg.gauge("serve.queue_depth");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        let h = reg.histogram("serve.score_latency_ns");
        h.record(1234);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.backpressure_replies"), Some(3));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(3));
        assert_eq!(snap.histogram("serve.score_latency_ns").unwrap().count, 1);
        // Name order is deterministic.
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn merged_unions_by_name_and_adds() {
        let ra = Registry::new();
        ra.counter("shared").add(10);
        ra.histogram("lat").record(100);
        ra.gauge("depth").add(4);
        let rb = Registry::new();
        rb.counter("shared").add(5);
        rb.counter("only_b").inc();
        rb.histogram("lat").record(200);
        let merged = MetricsSnapshot::merged(&[ra.snapshot(), rb.snapshot()]);
        assert_eq!(merged.counter("shared"), Some(15));
        assert_eq!(merged.counter("only_b"), Some(1));
        assert_eq!(merged.gauge("depth"), Some(4));
        let lat = merged.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 100);
        assert_eq!(lat.max, 200);
        // Same discipline as FleetSnapshot::merged: empty in, empty out.
        assert_eq!(MetricsSnapshot::merged(&[]), MetricsSnapshot::default());
    }
}
