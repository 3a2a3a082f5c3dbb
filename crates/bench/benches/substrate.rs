//! Micro-benchmarks of the substrates: tensor kernels, GRU steps, the
//! recurrent backward product at a full and a leftover row count, shortest
//! paths, city generation, map matching, and the scaling-table precompute.

use criterion::{criterion_group, criterion_main, Criterion};
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

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = Tensor::rand_uniform(64, 64, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(64, 64, -1.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(64, 64);
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| a.matmul_into(std::hint::black_box(&b), &mut out))
    });
    // The projection shape that dominates baseline decoding.
    let h = Tensor::rand_uniform(1, 48, -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(700, 48, -1.0, 1.0, &mut rng);
    let mut logits = Tensor::zeros(1, 700);
    c.bench_function("vocab_projection_700x48", |bch| {
        bch.iter(|| h.matmul_t_into(std::hint::black_box(&w), &mut logits))
    });
}

fn bench_gru_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let gru = GruCell::new(&mut store, "g", 24, 48, &mut rng);
    let x = Tensor::rand_uniform(1, 24, -1.0, 1.0, &mut rng);
    let h = Tensor::rand_uniform(1, 48, -1.0, 1.0, &mut rng);
    // The row step as the scorers run it: `U` packed and the input gates
    // projected ahead of time.
    let (u, gx) = (gru.pack_recurrent(&store), gru.input_gates(&store, &x));
    let (mut gh, mut out) = (vec![0.0; 3 * 48], vec![0.0; 48]);
    c.bench_function("gru_infer_step_24_48", |bch| {
        bch.iter(|| {
            let h = std::hint::black_box(h.data());
            gru.infer_step_rows(&u, |_| gx.row(0), h, &mut gh, [&mut out[..]]);
        })
    });
}

/// `dgh·Uᵀ` at hidden 256 with `Uᵀ` packed once, as `Tape::gru_sequence`'s
/// backward runs it, at 8 rows (two full 4-row tiles) and 7 (one full
/// tile and a 3-row tile over the same packed panels). The two read about
/// the same: a leftover row never falls back to a serial dot chain.
fn bench_recurrent_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let hd = 256;
    let u = Tensor::rand_uniform(hd, 3 * hd, -1.0, 1.0, &mut rng);
    let (rows, cols) = PackedRhs::storage_shape(3 * hd, hd);
    let packed_ut = PackedRhs::pack_transposed(&u, Tensor::zeros(rows, cols));
    for m in [7, 8] {
        let dgh = Tensor::rand_uniform(m, 3 * hd, -1.0, 1.0, &mut rng);
        let mut dh = Tensor::zeros(m, hd);
        c.bench_function(format!("dgh_ut_packed_once_m{m}"), |bch| {
            bch.iter(|| packed_ut.matmul_acc_into(std::hint::black_box(dgh.data()), dh.data_mut()))
        });
    }
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let net = generate_grid_city(
        &GridCityConfig { width: 16, height: 16, ..GridCityConfig::default() },
        &mut rng,
    );
    let from = NodeId(0);
    let to = NodeId((net.num_nodes() - 1) as u32);
    c.bench_function("dijkstra_node_16x16", |bch| {
        bch.iter(|| node_shortest_path(&net, from, to, length_cost(&net)))
    });
    let s = net.out_segments(from)[0];
    let d = net.in_segments(to)[0];
    c.bench_function("dijkstra_segment_16x16", |bch| {
        bch.iter(|| segment_shortest_path(&net, s, d, length_cost(&net)))
    });
    // The same query on a held search, as every generator search runs.
    let mut search = SegmentSearch::new(&net);
    c.bench_function("dijkstra_segment_16x16_reused", |bch| {
        bch.iter(|| search.path(s, d, length_cost(&net)))
    });
}

fn bench_generate_city(c: &mut Criterion) {
    let cfg = xian_s(Scale::Quick);
    let mut group = c.benchmark_group("trajsim");
    group.sample_size(10);
    group.bench_function("generate_city_xian_quick", |bch| bch.iter(|| generate_city(&cfg)));
    group.finish();
}

fn bench_map_matching(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("map_matching");
    group.sample_size(20);
    group.bench_function("hmm_viterbi", |bch| {
        bch.iter(|| match_trajectory(&net, &index, std::hint::black_box(&gps), &cfg).unwrap())
    });
    group.finish();
}

fn bench_scaling_precompute(c: &mut Criterion) {
    let city = generate_city(&CityConfig::test_scale(901));
    let mut cfg = CausalTadConfig::test_scale();
    cfg.epochs = 1;
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    let mut group = c.benchmark_group("scaling_table");
    group.sample_size(10);
    group.bench_function("precompute_all_segments", |bch| bch.iter(|| model.precompute_scaling()));
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gru_step,
    bench_recurrent_backward,
    bench_dijkstra,
    bench_generate_city,
    bench_map_matching,
    bench_scaling_precompute
);
criterion_main!(benches);
