//! Spans timed in the harness around one public call each (source **S**
//! of the per-layer table): the `TADN` codec, bare `push_batch` waves at
//! fixed widths, unbatched `push_state`, and the three matmul layouts at
//! the model's training shapes. Each value is the median of a few
//! repetitions of a fixed amount of work.

use std::hint::black_box;
use std::time::Instant;

use causaltad::{CausalTad, ScorerState};
use tad_autodiff::Tensor;
use tad_net::{
    request_from_bytes, request_to_bytes, response_from_bytes, response_to_bytes, Request, Response,
};
use tad_serve::ScoreUpdate;

use crate::metrics::Layers;
use crate::stats::median;
use crate::stream::Pool;

const REPS: usize = 5;

/// Median over [`REPS`] repetitions of the ns one call of `f` takes, each
/// repetition timing `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// Encode + decode of the two hot frames.
fn codec(layers: &mut Layers) {
    let req = Request::Segment { id: 0x1234_5678_9abc, seg: 4242 };
    layers.set(
        "net.codec.segment_ns",
        ns_per_call(100_000, || {
            black_box(request_from_bytes(request_to_bytes(black_box(&req))).expect("valid frame"));
        }),
    );
    let resp = Response::Score(ScoreUpdate {
        id: 0x1234_5678_9abc,
        seq: 17,
        segment: 4242,
        score: 3.25,
        nll: 1.5,
        log_scale: 0.125,
    });
    layers.set(
        "net.codec.score_ns",
        ns_per_call(100_000, || {
            black_box(
                response_from_bytes(response_to_bytes(black_box(&resp))).expect("valid frame"),
            );
        }),
    );
}

/// Waves each `push_batch` repetition advances its sessions by; the
/// shortest pool trip still has a segment left after this many.
const WAVES: usize = 6;

/// `width` fresh sessions over the pool's trips (cyclically), each past
/// its first segment so every wave pays the successor projection.
fn wave_states(model: &CausalTad, pool: &Pool, width: usize) -> (Vec<ScorerState>, Vec<usize>) {
    let usable: Vec<usize> =
        (0..pool.trips.len()).filter(|&i| pool.trips[i].segs.len() > WAVES).collect();
    let picks: Vec<usize> = (0..width).map(|i| usable[i % usable.len()]).collect();
    let states = picks
        .iter()
        .map(|&p| {
            let t = &pool.trips[p];
            let mut st = model
                .start_state(t.segs[0], *t.segs.last().expect("non-empty"), t.time_slot)
                .expect("pool trips are on the network");
            model.push_state(&mut st, t.segs[0]);
            st
        })
        .collect();
    (states, picks)
}

/// ns per segment of bare `push_batch` waves `width` sessions wide, with
/// the step cache — the ladder's L0.
pub fn push_batch_ns_per_seg(model: &CausalTad, pool: &Pool, width: usize) -> f64 {
    let cache = model.build_step_cache();
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut states, picks) = wave_states(model, pool, width);
            let t = Instant::now();
            for wave in 1..WAVES {
                let segs: Vec<u32> = picks.iter().map(|&p| pool.trips[p].segs[wave]).collect();
                black_box(model.push_batch(Some(&cache), &mut states, &segs));
            }
            t.elapsed().as_nanos() as f64 / (width * (WAVES - 1)) as f64
        })
        .collect();
    median(&reps)
}

/// ns per segment of unbatched `push_state` over the first pool trips.
fn push_state_ns_per_seg(model: &CausalTad, pool: &Pool) -> f64 {
    let trips = &pool.trips[..pool.trips.len().min(200)];
    let segments: usize = trips.iter().map(|t| t.segs.len()).sum();
    ns_per_call(1, || {
        for t in trips {
            let mut st = model
                .start_state(t.segs[0], *t.segs.last().expect("non-empty"), t.time_slot)
                .expect("pool trips are on the network");
            for &s in &t.segs {
                black_box(model.push_state(&mut st, s));
            }
        }
    }) / segments as f64
}

/// The three matmul layouts at the model's training shapes: `rows` is a
/// micro-batch's tokens (8 trajectories × ~16 segments), `hidden` the GRU
/// width, `vocab` the road-segment vocabulary.
fn matmuls(model: &CausalTad, layers: &mut Layers) {
    let (rows, hidden, vocab) = (128, model.config().hidden_dim, model.vocab());
    let fill = |r: usize, c: usize| {
        Tensor::from_vec(r, c, (0..r * c).map(|i| (i % 13) as f32 * 0.01 - 0.06).collect())
    };
    let gmacs = |ns: f64| (rows * hidden * vocab) as f64 / ns;
    let iters = (200_000_000 / (rows * hidden * vocab)).max(4);

    // Full-vocabulary head: activations (rows x hidden) · Wᵀ, W vocab x hidden.
    let (a, w) = (fill(rows, hidden), fill(vocab, hidden));
    let mut out = Tensor::zeros(rows, vocab);
    let ns = ns_per_call(iters, || black_box(&a).matmul_t_into(black_box(&w), &mut out));
    layers.set("autodiff.gmacs.matmul_t", gmacs(ns));

    // Its weight gradient: activationsᵀ · grad, grad rows x vocab.
    let g = fill(rows, vocab);
    let mut dw = Tensor::zeros(hidden, vocab);
    let ns = ns_per_call(iters, || black_box(&a).matmul_tn_into(black_box(&g), &mut dw));
    layers.set("autodiff.gmacs.matmul_tn", gmacs(ns));

    // Its input gradient: grad · W — also the layout of inference's
    // batched gate products.
    let mut da = Tensor::zeros(rows, hidden);
    let ns = ns_per_call(iters, || black_box(&g).matmul_into(black_box(&w), &mut da));
    layers.set("autodiff.gmacs.matmul", gmacs(ns));
}

/// Runs every micro span against `model` and fills its per-layer values.
pub fn run(model: &CausalTad, pool: &Pool, layers: &mut Layers) {
    codec(layers);
    for width in [64, 512, 2048] {
        let name = format!("core.push_batch_ns_per_seg.w{width}");
        layers.set(&name, push_batch_ns_per_seg(model, pool, width));
    }
    layers.set("core.push_state_ns_per_seg", push_state_ns_per_seg(model, pool));
    layers.set("core.step_cache_mb", model.build_step_cache().bytes() as f64 / (1 << 20) as f64);
    matmuls(model, layers);
}
