//! Trained detector suites: one city, the full method roster, fitted and
//! ready for evaluation.

use std::time::{Duration, Instant};

use causaltad::CausalTadConfig;
use tad_baselines::{paper_baselines, BaselineConfig, Detector};
use tad_eval::cities::{chengdu_s, xian_s, Scale};
use tad_eval::harness::parallel_map;
use tad_eval::wrappers::{CausalTadDetector, CausalTadVariant};
use tad_trajsim::{generate_city, City};

use crate::opts::{CityChoice, Opts};

/// A fitted roster on one city: the seven boxed baselines plus CausalTAD
/// (kept concrete so experiments can reach `set_lambda` and the online
/// trace), with per-detector training times.
pub struct TrainedSuite {
    pub city: City,
    pub baselines: Vec<Box<dyn Detector>>,
    pub causal: CausalTadDetector,
    /// `(detector name, wall-clock fit time)`.
    pub train_times: Vec<(String, Duration)>,
}

impl TrainedSuite {
    /// All detectors in the paper's table order (baselines, then
    /// CausalTAD last).
    pub fn all(&self) -> Vec<(&str, &dyn Detector)> {
        let mut out: Vec<(&str, &dyn Detector)> =
            self.baselines.iter().map(|d| (d.name(), d.as_ref())).collect();
        out.push((self.causal.name(), &self.causal as &dyn Detector));
        out
    }

    /// Finds a fitted detector by display name.
    pub fn detector(&self, name: &str) -> Option<&dyn Detector> {
        self.all().into_iter().find(|(n, _)| *n == name).map(|(_, d)| d)
    }
}

/// Baseline configuration per scale.
pub fn baseline_config(scale: Scale, epochs_override: Option<usize>) -> BaselineConfig {
    let mut cfg = match scale {
        Scale::Quick => BaselineConfig { epochs: 20, ..Default::default() },
        Scale::Paper => BaselineConfig {
            epochs: 30,
            hidden_dim: 64,
            embed_dim: 32,
            latent_dim: 32,
            ..Default::default()
        },
    };
    if let Some(e) = epochs_override {
        cfg.epochs = e;
    }
    cfg
}

/// CausalTAD configuration per scale, aligned with the baselines'.
pub fn causaltad_config(scale: Scale, epochs_override: Option<usize>) -> CausalTadConfig {
    let b = baseline_config(scale, epochs_override);
    CausalTadConfig {
        embed_dim: b.embed_dim,
        hidden_dim: b.hidden_dim,
        latent_dim: b.latent_dim,
        epochs: b.epochs,
        batch_size: b.batch_size,
        lr: b.lr,
        grad_clip: b.grad_clip,
        num_time_slots: b.num_time_slots,
        seed: b.seed,
        ..Default::default()
    }
}

/// The cities selected by the options.
pub fn selected_cities(opts: &Opts) -> Vec<City> {
    let cfgs = match opts.city {
        CityChoice::Xian => vec![xian_s(opts.scale)],
        CityChoice::Chengdu => vec![chengdu_s(opts.scale)],
        CityChoice::Both => vec![xian_s(opts.scale), chengdu_s(opts.scale)],
    };
    cfgs.iter()
        .map(|c| {
            eprintln!("generating city {} ...", c.name);
            let city = generate_city(c);
            eprintln!("  {} segments, {}", city.net.num_segments(), city.data.summary());
            city
        })
        .collect()
}

/// Trains the full paper roster (7 baselines + CausalTAD) on a city.
/// Baselines fan out across all available cores; CausalTAD trains last.
pub fn train_full_roster(city: &City, opts: &Opts) -> TrainedSuite {
    let b_cfg = baseline_config(opts.scale, opts.epochs);
    let c_cfg = causaltad_config(opts.scale, opts.epochs);

    let jobs: Vec<_> = paper_baselines(&b_cfg)
        .into_iter()
        .map(|mut det| {
            let net = &city.net;
            let train = &city.data.train;
            move || {
                let started = Instant::now();
                eprintln!("training {} ...", det.name());
                det.fit(net, train);
                let elapsed = started.elapsed();
                eprintln!("  {} done in {elapsed:.1?}", det.name());
                (det, elapsed)
            }
        })
        .collect();
    let fitted = parallel_map(jobs, available_workers());

    let mut baselines = Vec::with_capacity(fitted.len());
    let mut train_times = Vec::with_capacity(fitted.len() + 1);
    for (det, elapsed) in fitted {
        train_times.push((det.name().to_string(), elapsed));
        baselines.push(det);
    }

    let mut causal = CausalTadDetector::new(c_cfg);
    let started = Instant::now();
    eprintln!("training CausalTAD ...");
    causal.fit(&city.net, &city.data.train);
    let elapsed = started.elapsed();
    eprintln!("  CausalTAD done in {elapsed:.1?}");
    train_times.push(("CausalTAD".to_string(), elapsed));

    TrainedSuite { city: city.clone(), baselines, causal, train_times }
}

/// Trains the ablation roster (Table III): full CausalTAD plus its two
/// single-module scoring variants. All three share the same configuration
/// and seed, so they converge to the same parameters and differ only in the
/// scoring path.
pub fn train_ablation_roster(city: &City, opts: &Opts) -> Vec<CausalTadDetector> {
    let c_cfg = causaltad_config(opts.scale, opts.epochs);
    [CausalTadVariant::Full, CausalTadVariant::TgOnly, CausalTadVariant::RpOnly]
        .into_iter()
        .map(|variant| {
            let mut det = CausalTadDetector::variant(c_cfg.clone(), variant);
            det.fit(&city.net, &city.data.train);
            det
        })
        .collect()
}

/// Number of worker threads for training fan-outs.
fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_trajsim::CityConfig;

    #[test]
    fn configs_align_across_scales() {
        for scale in [Scale::Quick, Scale::Paper] {
            let b = baseline_config(scale, None);
            let c = causaltad_config(scale, None);
            assert_eq!(b.hidden_dim, c.hidden_dim);
            assert_eq!(b.epochs, c.epochs);
        }
        assert_eq!(baseline_config(Scale::Quick, Some(7)).epochs, 7);
    }

    #[test]
    fn ablation_roster_has_three_variants() {
        let city = generate_city(&CityConfig::test_scale(601));
        let opts = Opts { epochs: Some(1), ..Opts::default() };
        let roster = train_ablation_roster(&city, &opts);
        let names: Vec<_> = roster.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["CausalTAD", "TG-VAE", "RP-VAE"]);
        for det in &roster {
            assert!(det.score(&city.data.test_id[0]).is_finite());
        }
    }
}
