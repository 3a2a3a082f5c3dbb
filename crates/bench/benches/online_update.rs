//! Verifies the paper's O(1) online-update claim: the cost of
//! `OnlineScorer::push` must not grow with how many segments have already
//! been consumed — at test scale (hidden 20) and at the serving width
//! (hidden 256), where one push is one pass over the packed recurrent
//! weight.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use causaltad::{CausalTad, CausalTadConfig};
use tad_trajsim::{generate_city, City, CityConfig};

fn trained_model(hidden_dim: usize) -> (City, CausalTad) {
    let city = generate_city(&CityConfig::test_scale(900));
    let cfg = CausalTadConfig { hidden_dim, epochs: 1, ..CausalTadConfig::test_scale() };
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    (city, model)
}

/// Builds a long valid walk by following successors.
fn long_walk(model: &CausalTad, start: u32, len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut walk = vec![start];
    while walk.len() < len {
        let succ = model.successors_of(*walk.last().unwrap());
        if succ.is_empty() {
            break;
        }
        walk.push(succ[rng.gen_range(0..succ.len())]);
    }
    walk
}

fn bench_online_update(c: &mut Criterion) {
    let test_scale = CausalTadConfig::test_scale().hidden_dim;
    for (hidden_dim, name) in [(test_scale, "online_push"), (256, "online_push_hidden256")] {
        bench_push_at_depths(c, hidden_dim, name);
    }
}

fn bench_push_at_depths(c: &mut Criterion, hidden_dim: usize, name: &str) {
    let (_city, model) = trained_model(hidden_dim);
    let mut rng = StdRng::seed_from_u64(1);
    let walk = long_walk(&model, 0, 512, &mut rng);

    let mut group = c.benchmark_group(name);
    group.sample_size(30);
    // Cost of push() after different prefix depths: flat = O(1).
    for &depth in &[8usize, 64, 256] {
        if walk.len() <= depth {
            continue;
        }
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter_batched(
                || {
                    let mut scorer = model.online(walk[0], *walk.last().unwrap(), 0);
                    for &seg in &walk[..depth] {
                        scorer.push(seg);
                    }
                    scorer
                },
                |mut scorer| scorer.push(walk[depth]),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_scaling_lookup(c: &mut Criterion) {
    let (_city, model) = trained_model(CausalTadConfig::test_scale().hidden_dim);
    let table = model.scaling().expect("fitted");
    c.bench_function("scaling_table_lookup", |b| {
        b.iter(|| std::hint::black_box(table.log_scale(std::hint::black_box(5), 0)))
    });
}

criterion_group!(benches, bench_online_update, bench_scaling_lookup);
criterion_main!(benches);
