//! The study every artefact reads: the selected cities, each generated
//! once, with the baseline roster and the default CausalTAD each fitted
//! once per city — all on first use.

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad::{CausalTad, CausalTadConfig};
use tad_baselines::{paper_baselines, BaselineConfig, Detector};
use tad_eval::cities::{chengdu_s, xian_s, Scale};
use tad_eval::harness::parallel_map;
use tad_eval::wrappers::CausalTadDetector;
use tad_trajsim::{generate_city, City, CityConfig};

use crate::opts::{CityChoice, Opts};

/// One `paper` run: its options and, per selected city, the city and its
/// fits. The artefacts are its methods (`experiments.rs`); nothing is
/// generated or fitted until one of them asks.
pub struct Study {
    pub(crate) opts: Opts,
    pub(crate) suites: Vec<Suite>,
}

impl Study {
    /// The study of the options' cities.
    pub fn new(opts: Opts) -> Self {
        let cities = match opts.city {
            CityChoice::Xian => vec![xian_s(opts.scale)],
            CityChoice::Chengdu => vec![chengdu_s(opts.scale)],
            CityChoice::Both => vec![xian_s(opts.scale), chengdu_s(opts.scale)],
        };
        let suites = (cities.into_iter())
            .map(|config| Suite {
                config,
                baseline_cfg: baseline_config(opts.scale, opts.epochs),
                causal_cfg: causaltad_config(opts.scale, opts.epochs),
                city: OnceCell::new(),
                baselines: OnceCell::new(),
                causal: OnceCell::new(),
            })
            .collect();
        Study { opts, suites }
    }
}

/// One city of a [`Study`] and its fits, each made on first use: the
/// seven baselines (together, fanned out across the cores) and CausalTAD
/// (kept concrete so artefacts can reach its model: Table III's and Fig.
/// 8's score parts, Fig. 4's per-segment trace, the hostile grid's
/// engines), each with its fit time.
pub(crate) struct Suite {
    config: CityConfig,
    baseline_cfg: BaselineConfig,
    causal_cfg: CausalTadConfig,
    city: OnceCell<City>,
    baselines: OnceCell<Vec<(Box<dyn Detector>, Duration)>>,
    causal: OnceCell<(CausalTadDetector, Duration)>,
}

impl Suite {
    /// The city, generated on the first call.
    pub(crate) fn city(&self) -> &City {
        self.city.get_or_init(|| {
            eprintln!("generating city {} ...", self.config.name);
            let city = generate_city(&self.config);
            eprintln!("  {} segments, {}", city.net.num_segments(), city.data.summary());
            city
        })
    }

    /// The default CausalTAD, fitted on the first call.
    pub(crate) fn causal(&self) -> &CausalTadDetector {
        let fit = || {
            let mut causal = CausalTadDetector::new(self.causal_cfg.clone());
            let elapsed = timed_fit(&mut causal, self.city());
            (causal, elapsed)
        };
        &self.causal.get_or_init(fit).0
    }

    /// The default CausalTAD's model.
    pub(crate) fn model(&self) -> &Arc<CausalTad> {
        self.causal().model().expect("fitted")
    }

    /// All detectors in the paper's table order (baselines, then
    /// CausalTAD last), fitting whichever has not been.
    pub(crate) fn all(&self) -> Vec<(&str, &dyn Detector)> {
        let fit = || {
            let city = self.city();
            let jobs: Vec<_> = (paper_baselines(&self.baseline_cfg).into_iter())
                .map(|mut det| {
                    move || {
                        let elapsed = timed_fit(det.as_mut(), city);
                        (det, elapsed)
                    }
                })
                .collect();
            parallel_map(jobs, available_workers())
        };
        let mut out: Vec<(&str, &dyn Detector)> =
            (self.baselines.get_or_init(fit).iter()).map(|(d, _)| (d.name(), d.as_ref())).collect();
        out.push((self.causal().name(), self.causal()));
        out
    }

    /// `(detector, fit time)` of every fit made so far, in table order.
    pub(crate) fn train_times(&self) -> Vec<(&str, Duration)> {
        let baselines = self.baselines.get().into_iter().flatten();
        (baselines.map(|(d, t)| (d.name(), *t)))
            .chain(self.causal.get().map(|(d, t)| (d.name(), *t)))
            .collect()
    }
}

/// Fits `det` on the city's training split, saying so on stderr, and
/// returns the wall-clock time it took.
fn timed_fit(det: &mut dyn Detector, city: &City) -> Duration {
    let started = Instant::now();
    eprintln!("training {} ...", det.name());
    det.fit(&city.net, &city.data.train);
    let elapsed = started.elapsed();
    eprintln!("  {} done in {elapsed:.1?}", det.name());
    elapsed
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

/// Number of worker threads for training fan-outs.
fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
