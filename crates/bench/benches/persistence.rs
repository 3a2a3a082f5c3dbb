//! Session-persistence micro-benches: the fleet snapshot codec, the
//! engine's live snapshot/restore round-trip, and the O(1) LRU session
//! store.
//!
//! Three views:
//!
//! * `snapshot_codec`: encode/decode throughput of [`tad_serve::FleetImage`]
//!   blobs over synthetic serving-realistic sessions (hidden width 256,
//!   ~24-segment traces) at 64 / 512 / 4096 sessions.
//! * `engine_snapshot`: wall-clock of [`FleetEngine::snapshot`] against a
//!   live engine holding N in-flight trips, and of building a restored
//!   engine from the image — the warm-restart costs an operator budgets
//!   for.
//! * `lru`: per-op cost of the session store's `insert`-at-cap (evicting)
//!   and `touch` across store sizes 1k / 8k / 64k — flat per-op times are
//!   the point; the pre-PR2 eviction scan was O(sessions).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use causaltad::{CausalTad, CausalTadConfig, ScorerState};
use tad_bench::fleet_walks;
use tad_eval::cities::{xian_s, Scale};
use tad_serve::session::{Session, SessionStore};
use tad_serve::{
    image_from_bytes, image_to_bytes, Event, FleetConfig, FleetEngine, FleetImage, SessionRecord,
};

const SESSION_COUNTS: [usize; 3] = [64, 512, 4096];
const STORE_SIZES: [usize; 3] = [1_024, 8_192, 65_536];

/// A serving-realistic synthetic state: 256 hidden floats, 24 segments
/// in. No model is needed — the codec only sees the data.
fn synthetic_state(i: u64) -> ScorerState {
    let hidden: Vec<f32> = (0..256).map(|j| ((i as f32) * 0.01 + j as f32).sin()).collect();
    ScorerState::from_parts(hidden, 1.5, 12.0, 3.0, Some(i as u32 % 10_000), 3, 24)
}

fn synthetic_image(sessions: usize) -> FleetImage {
    FleetImage {
        num_shards: 4,
        sessions: (0..sessions as u64)
            .map(|id| SessionRecord {
                id,
                state: synthetic_state(id),
                pending: Vec::new(),
                ending: false,
                idle_micros: id * 100,
            })
            .collect(),
    }
}

fn bench_snapshot_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_codec");
    group.sample_size(20);
    for &n in &SESSION_COUNTS {
        let image = synthetic_image(n);
        let blob = image_to_bytes(&image);
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |b, _| {
            b.iter(|| image_to_bytes(&image));
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &n, |b, _| {
            b.iter(|| image_from_bytes(blob.clone()).expect("valid blob"));
        });
    }
    group.finish();
}

fn trained_model() -> Arc<CausalTad> {
    let city = tad_trajsim::generate_city(&xian_s(Scale::Quick));
    let cfg = CausalTadConfig {
        embed_dim: 64,
        hidden_dim: 256,
        latent_dim: 32,
        epochs: 1,
        ..CausalTadConfig::test_scale()
    };
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    Arc::new(model)
}

/// An engine holding `n` mid-flight trips (started and half-walked).
fn live_engine(model: &Arc<CausalTad>, walks: &[Vec<u32>]) -> FleetEngine {
    let engine = FleetEngine::builder(Arc::clone(model))
        .config(FleetConfig { num_shards: 2, ..FleetConfig::default() })
        .build()
        .expect("trained model");
    let mut events = Vec::new();
    for (id, walk) in walks.iter().enumerate() {
        events.push(Event::TripStart {
            id: id as u64,
            source: walk[0],
            dest: *walk.last().expect("non-empty"),
            time_slot: 0,
        });
    }
    for step in 0..walks[0].len() / 2 {
        for (id, walk) in walks.iter().enumerate() {
            if let Some(&seg) = walk.get(step) {
                events.push(Event::Segment { id: id as u64, seg });
            }
        }
    }
    engine.submit_all(events).expect("engine is live");
    engine
}

fn bench_engine_snapshot(c: &mut Criterion) {
    let model = trained_model();
    let mut group = c.benchmark_group("engine_snapshot");
    group.sample_size(10);
    for &n in &SESSION_COUNTS {
        let walks = fleet_walks(&model, n, 8, 23);
        let engine = live_engine(&model, &walks);
        let image = engine.snapshot().expect("all shards live");
        assert_eq!(image.sessions.len(), n);
        group.bench_with_input(BenchmarkId::new("capture", n), &n, |b, _| {
            b.iter(|| engine.snapshot().expect("all shards live"));
        });
        group.bench_with_input(BenchmarkId::new("restore_build", n), &n, |b, _| {
            b.iter_batched(
                || image.clone(),
                |image| {
                    FleetEngine::restore(Arc::clone(&model), image)
                        .config(FleetConfig { num_shards: 2, ..FleetConfig::default() })
                        .build()
                        .expect("snapshot fits")
                        .shutdown()
                },
                BatchSize::SmallInput,
            );
        });
        engine.shutdown();
    }
    group.finish();
}

fn full_store(n: usize, now: Instant) -> SessionStore {
    let mut store = SessionStore::new(n);
    for id in 0..n as u64 {
        store.insert(id, Session::new(ScorerState::default(), now));
    }
    store
}

fn bench_lru(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru");
    group.sample_size(20);
    for &n in &STORE_SIZES {
        let now = Instant::now();
        // Churn: every insert at cap evicts the true oldest. O(1) per op —
        // per-op time must stay flat as the store grows.
        group.bench_with_input(BenchmarkId::new("insert_evict", n), &n, |b, _| {
            let mut store = full_store(n, now);
            let mut next_id = n as u64;
            b.iter(|| {
                let evicted = store.insert(next_id, Session::new(ScorerState::default(), now));
                next_id += 1;
                evicted.expect("store is at cap").0
            });
        });
        group.bench_with_input(BenchmarkId::new("touch", n), &n, |b, _| {
            let mut store = full_store(n, now);
            let mut cursor: u64 = 0;
            b.iter(|| {
                // Stride through the id space pseudo-randomly.
                cursor = cursor.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let id = cursor % n as u64;
                store.touch(id, now).expect("id in range");
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot_codec, bench_engine_snapshot, bench_lru);
criterion_main!(benches);
