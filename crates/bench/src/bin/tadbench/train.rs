//! `train_eval`: the offline workload. One thread trains
//! `CausalTadConfig::paper_scale()` widths on both quick cities, scores
//! all four test sets of each with the full model and with the TG-VAE-only
//! ablation, and reports training throughput, offline scoring throughput
//! and the detection AUCs (macro-averaged over the cities). No serving
//! thread runs.

use std::time::Instant;

use causaltad::{CausalTad, CausalTadConfig};
use tad_eval::cities::{chengdu_s, xian_s, Scale};
use tad_trajsim::{City, CityConfig};

use crate::oracle::{aucs, Aucs};
use crate::setup::timed;
use crate::stats::median;
use crate::stream::{Pool, StreamHash};
use crate::trace::Tracer;

/// Training epochs per city.
pub const EPOCHS: usize = 12;

/// Times the set-up (both cities with all their datasets) is repeated;
/// the reported set-up time is the median.
const SETUP_REPEATS: usize = 5;

/// The two city configurations, in training order.
pub fn city_configs() -> [CityConfig; 2] {
    [xian_s(Scale::Quick), chengdu_s(Scale::Quick)]
}

/// What one city contributed.
pub struct CityResult {
    /// Seconds `fit` took.
    pub fit_s: f64,
    /// Training tokens per epoch.
    pub train_tokens: usize,
    /// Loss of the last epoch.
    pub final_loss: f64,
    /// AUCs of the debiased score.
    pub aucs: Aucs,
    /// AUCs of the TG-VAE-only score.
    pub tg_aucs: Aucs,
    /// Offline scoring throughput (`score` + `score_tg_only`), segments
    /// per second.
    pub score_segments_per_s: f64,
    /// Test trajectories scored.
    pub scored: u64,
    /// Scores that were not finite or where offline `score` and the
    /// sequential scorer disagreed bit-wise.
    pub failed: u64,
    /// Seconds the AUC computation took.
    pub auc_s: f64,
}

/// The whole workload's results.
pub struct TrainEval {
    /// Median seconds of one set-up (both cities).
    pub setup_s: f64,
    /// Median seconds of generating the first city alone.
    pub generate_city_s: f64,
    /// Per city, in training order.
    pub cities: Vec<CityResult>,
    /// Hash of the training and test inputs.
    pub input_hash: StreamHash,
}

impl TrainEval {
    /// Tokens × epochs ÷ wall of `fit`, over both cities.
    pub fn train_tokens_per_s(&self) -> f64 {
        let tokens: usize = self.cities.iter().map(|c| c.train_tokens * EPOCHS).sum();
        tokens as f64 / self.cities.iter().map(|c| c.fit_s).sum::<f64>()
    }

    /// Offline scoring throughput, mean over cities.
    pub fn score_segments_per_s(&self) -> f64 {
        self.mean(|c| c.score_segments_per_s)
    }

    /// Mean over cities of `f`.
    pub fn mean(&self, f: impl Fn(&CityResult) -> f64) -> f64 {
        self.cities.iter().map(f).sum::<f64>() / self.cities.len() as f64
    }
}

fn hash_city(hash: &mut StreamHash, city: &City, pool: &Pool) {
    for t in &city.data.train {
        for s in &t.segments {
            hash.fold(StreamHash(u64::from(s.0)));
        }
    }
    for t in &pool.trips {
        for &s in &t.segs {
            hash.fold(StreamHash(u64::from(s) << 8 | u64::from(t.time_slot)));
        }
    }
}

fn run_city(city: &City, pool: &Pool, tracer: &mut Tracer) -> CityResult {
    let cfg = CausalTadConfig { epochs: EPOCHS, ..CausalTadConfig::paper_scale() };
    let mut model = CausalTad::new(&city.net, cfg);
    let t0 = crate::oracle::now_ns();
    let (fit_s, report) = timed(|| model.fit(&city.data.train));
    tracer.span("core.fit", "", 0, t0, crate::oracle::now_ns());

    // Offline scoring: the four test sets in pool order, full score and
    // TG-only ablation.
    let tests: Vec<&tad_trajsim::Trajectory> = {
        let d = &city.data;
        d.test_id.iter().chain(&d.test_ood).chain(&d.detour).chain(&d.switch).collect()
    };
    let segments: usize = tests.iter().map(|t| t.len()).sum();
    let t0 = crate::oracle::now_ns();
    let (score_s, (scores, tg_scores)) = timed(|| {
        let scores: Vec<f64> = tests.iter().map(|t| model.score(t)).collect();
        let tg_scores: Vec<f64> = tests.iter().map(|t| model.score_tg_only(t)).collect();
        (scores, tg_scores)
    });
    tracer.span("core.offline_score", "", 0, t0, crate::oracle::now_ns());

    // The oracle: the paper's online update, one segment at a time, must
    // end on the offline score bit for bit.
    let failed = pool
        .trips
        .iter()
        .zip(&scores)
        .filter(|&(trip, &offline)| {
            let mut scorer =
                model.online(trip.segs[0], *trip.segs.last().expect("non-empty"), trip.time_slot);
            let last = trip.segs.iter().fold(f64::NAN, |_, &s| scorer.push(s));
            !offline.is_finite() || last.to_bits() != offline.to_bits()
        })
        .count() as u64;

    let (auc_s, (aucs_full, tg_aucs)) = timed(|| {
        (
            aucs(pool, &scores).expect("every test trip scored"),
            aucs(pool, &tg_scores).expect("every test trip scored"),
        )
    });
    CityResult {
        fit_s,
        train_tokens: city.data.train.iter().map(|t| t.len()).sum(),
        final_loss: report.final_loss(),
        aucs: aucs_full,
        tg_aucs,
        score_segments_per_s: (2 * segments) as f64 / score_s,
        scored: tests.len() as u64,
        failed,
        auc_s,
    }
}

/// Runs the workload. `tracer` receives one span per public call.
pub fn run(tracer: &mut Tracer) -> TrainEval {
    let configs = city_configs();
    let (mut setups, mut first_city) = (Vec::new(), Vec::new());
    let mut cities: Vec<City> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (one_s, first) = timed(|| tad_trajsim::generate_city(&configs[0]));
        cities = vec![first, tad_trajsim::generate_city(&configs[1])];
        setups.push(t.elapsed().as_secs_f64());
        first_city.push(one_s);
    }
    let mut input_hash = StreamHash::default();
    let results = cities
        .iter()
        .map(|city| {
            let pool = Pool::from_city(city);
            hash_city(&mut input_hash, city, &pool);
            run_city(city, &pool, tracer)
        })
        .collect();
    TrainEval {
        setup_s: median(&setups),
        generate_city_s: median(&first_city),
        cities: results,
        input_hash,
    }
}
