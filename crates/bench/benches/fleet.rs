//! Fleet-scoring throughput: micro-batched stepping vs naive per-session
//! `push` looping.
//!
//! Two complementary views:
//!
//! * The `fleet_wave` sweep: ns per segment of one scoring *wave* (every
//!   session advances one segment) at widths 1 / 8 / 64 / 512 / 4096 /
//!   16 384 and hidden widths 48 / 128 / 256 — `naive` loops
//!   `CausalTad::push_state`, `batched` makes one `CausalTad::push_batch`
//!   call. Both step against the model's resident inference plan; at
//!   width 1 they are the same step. Written to `BENCH_score.json`
//!   (override the path with `BENCH_SCORE_OUT`) next to the same sweep
//!   taken at the parent commit, where every `push_state` projected its
//!   input, read `U` in place and allocated seven times.
//! * An end-to-end events/sec summary (printed after the criterion run)
//!   replaying full interleaved streams through the naive loop, a 1-shard
//!   `tad-serve` engine, and a default-shard engine — the acceptance
//!   numbers for the serving subsystem.
//!
//! `CRITERION_QUICK=1` cuts the repetitions for CI smoke runs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use causaltad::{CausalTad, CausalTadConfig, ScorerState};
use tad_bench::{fleet_walks, time_engine_fleet, time_naive_fleet};
use tad_eval::cities::{xian_s, Scale};
use tad_serve::FleetConfig;

const WAVE_WIDTHS: [usize; 6] = [1, 8, 64, 512, 4096, 16_384];
const HIDDEN_WIDTHS: [usize; 3] = [48, 128, 256];
const SESSION_COUNTS: [usize; 3] = [64, 512, 4096];
const WALK_LEN: usize = 24;

/// The same sweep at the parent of the resident-plan change (commit
/// 3df84f7: `push_state` projected `x·W`, read `U` in place and allocated
/// per push; `push_batch` packed `U` per tile and kept a step cache of its
/// own), on the 2-vCPU development host — per cell the median of three
/// full runs alternated with runs of this code:
/// `row(hidden, width, naive ns/segment, batched ns/segment)`.
const AT_PARENT: [WaveRow; 18] = [
    row(48, 1, 2915.0, 1857.0),
    row(48, 8, 2894.0, 1209.6),
    row(48, 64, 2827.1, 1150.8),
    row(48, 512, 2494.6, 1046.8),
    row(48, 4096, 2381.4, 1039.9),
    row(48, 16_384, 2594.2, 947.4),
    row(128, 1, 6700.0, 5770.0),
    row(128, 8, 8383.4, 3743.4),
    row(128, 64, 7477.6, 3168.8),
    row(128, 512, 7249.7, 3047.9),
    row(128, 4096, 7500.7, 3055.9),
    row(128, 16_384, 7844.0, 3272.1),
    row(256, 1, 17256.0, 13723.0),
    row(256, 8, 17649.5, 11799.6),
    row(256, 64, 21797.3, 9839.4),
    row(256, 512, 20506.4, 9588.9),
    row(256, 4096, 21519.9, 10312.9),
    row(256, 16_384, 22617.1, 10261.0),
];

const WAVE_NOTE: &str = "every session past its first segment advances one segment; \
    batched = one push_batch, naive = push_state per session, both against the model's \
    resident inference plan";
const PARENT_NOTE: &str = "push_state projecting x·W, reading U in place and allocating per \
    push; per cell the median of three full (non-quick) runs on the 2-vCPU development host, \
    alternated with runs of this code, whose naive column read 760-920 / 4100-5200 / \
    10100-18000 ns at hidden 48 / 128 / 256 in those runs; the host's speed drifts 20-60 % \
    over minutes, so read each block for its trend over width, not block against block";

fn quick_mode() -> bool {
    std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
}

fn trained_model(hidden_dim: usize) -> Arc<CausalTad> {
    let city = tad_trajsim::generate_city(&xian_s(Scale::Quick));
    // Serving-realistic widths; one epoch keeps bench start-up short.
    let cfg = CausalTadConfig {
        embed_dim: 64,
        hidden_dim,
        latent_dim: 32,
        epochs: 1,
        ..CausalTadConfig::test_scale()
    };
    let mut model = CausalTad::new(&city.net, cfg);
    model.fit(&city.data.train);
    Arc::new(model)
}

/// Sessions mid-trip, ready to consume one more segment each.
fn wave_fixture(model: &CausalTad, walks: &[Vec<u32>]) -> (Vec<ScorerState>, Vec<u32>) {
    let states: Vec<ScorerState> = walks
        .iter()
        .map(|w| {
            let mut st = model
                .start_state(w[0], *w.last().expect("non-empty"), 0)
                .expect("valid walk endpoints");
            model.push_state(&mut st, w[0]);
            st
        })
        .collect();
    let segs: Vec<u32> = walks.iter().map(|w| w[1]).collect();
    (states, segs)
}

/// Median ns per segment of `wave` over fresh copies of `states`; the
/// copies are made outside the timed region.
fn wave_ns_per_seg(states: &[ScorerState], mut wave: impl FnMut(&mut [ScorerState])) -> f64 {
    let reps = if quick_mode() { 3 } else { (32_768 / states.len()).clamp(5, 128) };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut fresh = states.to_vec();
            let started = Instant::now();
            wave(&mut fresh);
            let ns = started.elapsed().as_nanos() as f64;
            black_box(fresh);
            ns / states.len() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct WaveRow {
    hidden: usize,
    width: usize,
    naive_ns: f64,
    batched_ns: f64,
}

const fn row(hidden: usize, width: usize, naive_ns: f64, batched_ns: f64) -> WaveRow {
    WaveRow { hidden, width, naive_ns, batched_ns }
}

impl WaveRow {
    fn json(&self) -> String {
        format!(
            "{{\"hidden\": {}, \"width\": {}, \"naive_ns_per_segment\": {:.1}, \"batched_ns_per_segment\": {:.1}, \"speedup\": {:.2}}}",
            self.hidden,
            self.width,
            self.naive_ns,
            self.batched_ns,
            self.naive_ns / self.batched_ns
        )
    }
}

/// The `fleet_wave` sweep: pure stepping, one wave = one segment/session.
fn bench_waves(_c: &mut Criterion) {
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>10}   (fleet_wave: pure stepping, one wave = one segment/session)",
        "hidden", "sessions", "naive ns/seg", "batched ns/seg", "speedup"
    );
    let mut rows = Vec::new();
    for &hidden in &HIDDEN_WIDTHS {
        let model = trained_model(hidden);
        for &width in &WAVE_WIDTHS {
            let walks = fleet_walks(&model, width, 4, 11);
            let (states, segs) = wave_fixture(&model, &walks);
            let naive_ns = wave_ns_per_seg(&states, |states| {
                for (st, &seg) in states.iter_mut().zip(&segs) {
                    model.push_state(st, seg);
                }
            });
            let batched_ns = wave_ns_per_seg(&states, |states| {
                black_box(model.push_batch(None, states, &segs));
            });
            println!(
                "{hidden:>8} {width:>10} {naive_ns:>16.0} {batched_ns:>16.0} {:>9.2}x",
                naive_ns / batched_ns
            );
            rows.push(row(hidden, width, naive_ns, batched_ns));
        }
    }
    write_json(&rows);
}

fn write_json(rows: &[WaveRow]) {
    // `cargo bench` runs with the package directory as cwd; default to the
    // workspace root so the artefact lands next to README.md.
    let path = std::env::var("BENCH_SCORE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_score.json").to_string()
    });
    let list = |rows: &[WaveRow]| {
        rows.iter().map(|r| format!("    {}", r.json())).collect::<Vec<_>>().join(",\n")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", tad_bench::host_json()));
    out.push_str(&format!(
        "  \"workload\": {{\"city\": \"xian-s\", \"scale\": \"quick\", \"wave\": \"{WAVE_NOTE}\", \"unit\": \"median ns per segment\", \"quick_mode\": {}}},\n",
        quick_mode()
    ));
    out.push_str(&format!(
        "  \"at_parent\": {{\"commit\": \"3df84f7\", \"note\": \"{PARENT_NOTE}\", \"rows\": [\n{}\n  ]}},\n",
        list(&AT_PARENT)
    ));
    out.push_str(&format!("  \"fleet_wave\": [\n{}\n  ]\n}}\n", list(rows)));
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let model = trained_model(256);
    let shards = FleetConfig::default().num_shards;

    // One criterion entry so the scenario shows up in bench output...
    let walks_512 = fleet_walks(&model, 512, WALK_LEN, 7);
    c.bench_function("fleet_engine_512x24_events", |b| {
        b.iter(|| time_engine_fleet(&model, &walks_512, shards))
    });

    // ...and the full end-to-end comparison (engine ingest + lifecycle +
    // scoring) against the naive per-session push loop. On a single-core
    // host the multi-shard row cannot beat x1; on real multi-core serving
    // hardware it scales with shards.
    println!();
    println!(
        "{:>10} {:>10} {:>14} {:>16} {:>16} {:>10} {:>10}",
        "sessions",
        "events",
        "naive ev/s",
        "fleet x1 ev/s",
        format!("fleet x{shards} ev/s"),
        "x1 gain",
        "xN gain"
    );
    for &n in &SESSION_COUNTS {
        let walks = fleet_walks(&model, n, WALK_LEN, 7);
        let events: usize = walks.iter().map(Vec::len).sum();
        let naive = events as f64 / time_naive_fleet(&model, &walks);
        let one = events as f64 / time_engine_fleet(&model, &walks, 1);
        let many = events as f64 / time_engine_fleet(&model, &walks, shards);
        println!(
            "{:>10} {:>10} {:>14.0} {:>16.0} {:>16.0} {:>9.2}x {:>9.2}x",
            n,
            events,
            naive,
            one,
            many,
            one / naive,
            many / naive
        );
    }
}

criterion_group!(fleet, bench_waves, bench_end_to_end);
criterion_main!(fleet);
