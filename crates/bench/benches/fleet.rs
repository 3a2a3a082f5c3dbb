//! The `fleet_wave` sweep: ns per segment of one scoring *wave* (every
//! session advances one segment) at widths 1 / 8 / 64 / 512 / 4096 /
//! 16 384 and hidden widths 48 / 128 / 256. `naive` loops
//! `CausalTad::push_state`, `batched` makes one `CausalTad::push_batch`
//! call. Both step against the model's resident inference plan; at width
//! 1 they are the same step. Written to the repository's
//! `BENCH_score.json` with the host it was taken on: per cell, each
//! side's median and its quartiles over the repetitions, so a re-take
//! can tell a moved cell from the spread.
//!
//! `BENCH_QUICK=1` cuts the repetitions to three per cell. The sweep runs
//! only under `cargo bench`, which passes `--bench`; `cargo test` runs
//! this target with no arguments, and then it returns without timing or
//! writing anything.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use causaltad::{CausalTad, CausalTadConfig, ScorerState};
use tad_eval::cities::{xian_s, Scale};

const WAVE_WIDTHS: [usize; 6] = [1, 8, 64, 512, 4096, 16_384];
const HIDDEN_WIDTHS: [usize; 3] = [48, 128, 256];

const WAVE_NOTE: &str = "every session past its first segment advances one segment; \
    batched = one push_batch, naive = push_state per session, both against the model's \
    resident inference plan";

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
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

/// Valid successor-following walks for `sessions` concurrent trips.
fn fleet_walks(
    model: &causaltad::CausalTad,
    sessions: usize,
    len: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..sessions)
        .map(|i| {
            let mut walk = vec![(i % model.vocab()) as u32];
            while walk.len() < len {
                let succ = model.successors_of(*walk.last().expect("non-empty"));
                if succ.is_empty() {
                    break;
                }
                walk.push(succ[rng.gen_range(0..succ.len())]);
            }
            walk
        })
        .collect()
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

/// Lower quartile, median and upper quartile of one cell's repetitions,
/// ns per segment.
#[derive(Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

/// ns per segment of `wave` over fresh copies of `states`; the copies are
/// made outside the timed region.
fn wave_ns_per_seg(states: &[ScorerState], mut wave: impl FnMut(&mut [ScorerState])) -> Spread {
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
    let n = samples.len();
    Spread { q1: samples[n / 4], median: samples[n / 2], q3: samples[3 * n / 4] }
}

struct WaveRow {
    hidden: usize,
    width: usize,
    naive: Spread,
    batched: Spread,
}

impl WaveRow {
    fn json(&self) -> String {
        let (naive, batched) = (self.naive, self.batched);
        format!(
            "{{\"hidden\": {}, \"width\": {}, \"naive_ns_per_segment\": {:.1}, \"naive_quartiles_ns\": [{:.1}, {:.1}], \"batched_ns_per_segment\": {:.1}, \"batched_quartiles_ns\": [{:.1}, {:.1}], \"speedup\": {:.2}}}",
            self.hidden,
            self.width,
            naive.median,
            naive.q1,
            naive.q3,
            batched.median,
            batched.q1,
            batched.q3,
            naive.median / batched.median
        )
    }
}

/// The `fleet_wave` sweep: pure stepping, one wave = one segment/session.
fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
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
            let naive = wave_ns_per_seg(&states, |states| {
                for (st, &seg) in states.iter_mut().zip(&segs) {
                    model.push_state(st, seg);
                }
            });
            let batched = wave_ns_per_seg(&states, |states| {
                black_box(model.push_batch(None, states, &segs));
            });
            println!(
                "{hidden:>8} {width:>10} {:>16.0} {:>16.0} {:>9.2}x",
                naive.median,
                batched.median,
                naive.median / batched.median
            );
            rows.push(WaveRow { hidden, width, naive, batched });
        }
    }
    write_json(&rows);
}

fn write_json(rows: &[WaveRow]) {
    // `cargo bench` runs with the package directory as cwd; the artefact
    // lands at the workspace root, next to README.md.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_score.json");
    let list = rows.iter().map(|r| format!("    {}", r.json())).collect::<Vec<_>>().join(",\n");
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", tad_bench::host_json()));
    out.push_str(&format!(
        "  \"workload\": {{\"city\": \"xian-s\", \"scale\": \"quick\", \"wave\": \"{WAVE_NOTE}\", \"unit\": \"ns per segment: median, and [lower, upper] quartile over the repetitions\", \"quick_mode\": {}}},\n",
        quick_mode()
    ));
    out.push_str(&format!("  \"fleet_wave\": [\n{list}\n  ]\n}}\n"));
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
