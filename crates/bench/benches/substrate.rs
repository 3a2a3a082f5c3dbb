//! Micro-benchmarks of the substrates: tensor kernels, GRU steps, the
//! recurrent backward product at a full and a leftover row count, shortest
//! paths, city generation, map matching, and the scaling-table precompute.
//!
//! Each row prints the median time per call over batches of calls, each
//! batch sized to take at least a millisecond, sampled for 300 ms (at
//! least 11 batches, however long they take, and at most 64). The
//! rows run only under `cargo bench`, which passes `--bench`; `cargo test`
//! runs this target with no arguments, and then it returns at once.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use causaltad::{CausalTad, CausalTadConfig};
use tad_autodiff::nn::GruCell;
use tad_autodiff::{PackedRhs, ParamStore, Tensor};
use tad_eval::cities::{xian_s, Scale};
use tad_roadnet::dijkstra::{
    length_cost, node_shortest_path, segment_shortest_path, SegmentSearch,
};
use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
use tad_roadnet::index::SegmentIndex;
use tad_roadnet::matching::{match_trajectory, synthesize_gps, MatchConfig};
use tad_roadnet::NodeId;
use tad_trajsim::{generate_city, CityConfig};

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    bench_matmul();
    bench_gru_step();
    bench_recurrent_backward();
    bench_dijkstra();
    bench_generate_city();
    bench_map_matching();
    bench_scaling_precompute();
}

/// Prints `name`'s median time per call of `f`: batches grow fourfold
/// until one takes a millisecond, then batches run for a fixed budget.
/// A row whose call outlasts the budget still gets `MIN_BATCHES`, so its
/// median is not the larger of two calls.
fn bench<O>(name: &str, mut f: impl FnMut() -> O) {
    const BUDGET: Duration = Duration::from_millis(300);
    const MIN_BATCHES: usize = 11;
    let mut time_batch = |batch: u64| {
        let started = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        started.elapsed()
    };
    let mut batch = 1;
    while time_batch(batch) < Duration::from_millis(1) && batch < 1 << 20 {
        batch *= 4;
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || (started.elapsed() < BUDGET && samples.len() < 64) {
        samples.push(time_batch(batch).as_secs_f64() * 1e9 / batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    let ns = samples[samples.len() / 2];
    let (value, unit) = match ns {
        ns if ns < 1e3 => (ns, "ns"),
        ns if ns < 1e6 => (ns / 1e3, "µs"),
        ns => (ns / 1e6, "ms"),
    };
    let iters = batch * samples.len() as u64;
    println!("{name:<48} time: {value:>10.3} {unit}/iter  ({iters} iters)");
}

fn bench_matmul() {
    let mut rng = StdRng::seed_from_u64(0);
    let a = Tensor::rand_uniform(64, 64, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(64, 64, -1.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(64, 64);
    bench("matmul_64x64", || a.matmul_into(black_box(&b), &mut out));
    // The projection shape that dominates baseline decoding.
    let h = Tensor::rand_uniform(1, 48, -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(700, 48, -1.0, 1.0, &mut rng);
    let mut logits = Tensor::zeros(1, 700);
    bench("vocab_projection_700x48", || h.matmul_t_into(black_box(&w), &mut logits));
}

fn bench_gru_step() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 24, 48, &mut rng);
    let x = Tensor::rand_uniform(1, 24, -1.0, 1.0, &mut rng);
    let h = Tensor::rand_uniform(1, 48, -1.0, 1.0, &mut rng);
    // The row step as the scorers run it: `U` packed and the input gates
    // projected ahead of time.
    let (u, gx) = (gru.pack_recurrent(&store), gru.input_gates(&store, &x));
    let (mut gh, mut out) = (vec![0.0; 3 * 48], vec![0.0; 48]);
    bench("gru_infer_step_24_48", || {
        let h = black_box(h.data());
        gru.infer_step_rows(&u, |_| gx.row(0), h, &mut gh, [&mut out[..]]);
    });
}

/// `dgh·Uᵀ` at hidden 256 with `Uᵀ` packed once, as `Tape::gru_sequence`'s
/// backward runs it, at 8 rows (two full 4-row tiles) and 7 (one full
/// tile and a 3-row tile over the same packed panels). The two read about
/// the same: a leftover row never falls back to a serial dot chain.
fn bench_recurrent_backward() {
    let mut rng = StdRng::seed_from_u64(4);
    let hd = 256;
    let u = Tensor::rand_uniform(hd, 3 * hd, -1.0, 1.0, &mut rng);
    let (rows, cols) = PackedRhs::storage_shape(3 * hd, hd);
    let packed_ut = PackedRhs::pack_transposed(&u, Tensor::zeros(rows, cols));
    for m in [7, 8] {
        let dgh = Tensor::rand_uniform(m, 3 * hd, -1.0, 1.0, &mut rng);
        let mut dh = Tensor::zeros(m, hd);
        bench(&format!("dgh_ut_packed_once_m{m}"), || {
            packed_ut.matmul_acc_into(black_box(dgh.data()), dh.data_mut())
        });
    }
}

fn bench_dijkstra() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = generate_grid_city(
        &GridCityConfig { width: 16, height: 16, ..GridCityConfig::default() },
        &mut rng,
    );
    let from = NodeId(0);
    let to = NodeId((net.num_nodes() - 1) as u32);
    bench("dijkstra_node_16x16", || node_shortest_path(&net, from, to, length_cost(&net)));
    let s = net.out_segments(from)[0];
    let d = net.in_segments(to)[0];
    bench("dijkstra_segment_16x16", || segment_shortest_path(&net, s, d, length_cost(&net)));
    // The same query on a held search, as every generator search runs.
    let mut search = SegmentSearch::new(&net);
    bench("dijkstra_segment_16x16_reused", || search.path(s, d, length_cost(&net)));
}

fn bench_generate_city() {
    let cfg = xian_s(Scale::Quick);
    bench("trajsim/generate_city_xian_quick", || generate_city(&cfg));
}

fn bench_map_matching() {
    let mut rng = StdRng::seed_from_u64(3);
    let net = generate_grid_city(
        &GridCityConfig { missing_edge_prob: 0.0, jitter: 0.0, ..GridCityConfig::tiny() },
        &mut rng,
    );
    let index = SegmentIndex::build(&net, 200.0);
    let route =
        node_shortest_path(&net, NodeId(0), NodeId(35), length_cost(&net)).unwrap().segments;
    let gps = synthesize_gps(&net, &route, 40.0, 8.0, &mut rng);
    let cfg = MatchConfig::default();
    bench("map_matching/hmm_viterbi", || {
        match_trajectory(&net, &index, black_box(&gps), &cfg).unwrap()
    });
}

fn bench_scaling_precompute() {
    let city = generate_city(&CityConfig::test_scale(901));
    let mut cfg = CausalTadConfig::test_scale();
    cfg.epochs = 1;
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    bench("scaling_table/precompute_all_segments", || model.precompute_scaling());
}
