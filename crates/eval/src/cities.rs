//! Standard synthetic cities for the experiment suite.
//!
//! Two city configurations stand in for the paper's two datasets:
//! **xian-s** and **chengdu-s** (the paper's Chengdu set has roughly twice
//! the trajectories of Xi'an, which is mirrored here). Each comes in two
//! scales:
//!
//! * `Quick` — minutes on a laptop CPU; the default for every experiment
//!   binary and the integration tests.
//! * `Paper` — larger road networks and trajectory counts, closer to the
//!   paper's 10k/20k-trajectory setup; minutes per table (see
//!   [`Scale::Paper`]).

use tad_roadnet::grid::GridCityConfig;
use tad_trajsim::anomaly::AnomalyConfig;
use tad_trajsim::preference::PreferenceConfig;
use tad_trajsim::routing::RouteChoiceConfig;
use tad_trajsim::sd::SdConfig;
use tad_trajsim::CityConfig;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CPU-minutes scale (default).
    Quick,
    /// Closer to the paper's dataset sizes: a 16×16 grid and 100 SD pairs
    /// × 60 trips (twice the trips on chengdu). Minutes, not hours: in a
    /// release build on a 2-vCPU host Tables I–III on xian took 2 m 46 s,
    /// Tables II–III on chengdu 5 m 31 s.
    Paper,
}

impl Scale {
    /// Parses `--scale quick|paper` style arguments.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The "Xi'an-like" synthetic city.
pub fn xian_s(scale: Scale) -> CityConfig {
    base_city("xian-s", scale, 11)
}

/// The "Chengdu-like" synthetic city: different seed/layout and roughly
/// twice the trajectories, as in the paper.
pub fn chengdu_s(scale: Scale) -> CityConfig {
    let mut cfg = base_city("chengdu-s", scale, 97);
    cfg.trajs_per_pair *= 2;
    cfg.num_ood_pairs = (cfg.num_ood_pairs as f64 * 1.5) as usize;
    cfg.grid.major_every = 5;
    cfg.pref.num_pois += 2;
    cfg
}

/// Both standard cities.
pub fn standard_cities(scale: Scale) -> Vec<CityConfig> {
    vec![xian_s(scale), chengdu_s(scale)]
}

fn base_city(name: &str, scale: Scale, seed: u64) -> CityConfig {
    // Many SD pairs with moderate depth per pair matter more than raw
    // trajectory count: endpoint-embedding coverage is what lets the SD
    // encoder generalise, which the paper's 100-pair setup provides.
    let (grid_side, pairs, per_pair, ood_pairs, anomalies) = match scale {
        Scale::Quick => (12, 60, 20, 50, 250),
        Scale::Paper => (16, 100, 60, 150, 1200),
    };
    CityConfig {
        name: name.to_string(),
        grid: GridCityConfig {
            width: grid_side,
            height: grid_side,
            block_len: 200.0,
            major_every: 4,
            arterial_every: 2,
            jitter: 0.08,
            missing_edge_prob: 0.06,
        },
        pref: PreferenceConfig::default(),
        route: RouteChoiceConfig::default(),
        sd: SdConfig { min_segments: 14, max_segments: 32, ..Default::default() },
        anomaly: AnomalyConfig::default(),
        num_candidate_pairs: pairs,
        trajs_per_pair: per_pair,
        num_ood_pairs: ood_pairs,
        trajs_per_ood_pair: 3,
        num_anomalies: anomalies,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn chengdu_has_more_data_than_xian() {
        let x = xian_s(Scale::Quick);
        let c = chengdu_s(Scale::Quick);
        assert!(c.trajs_per_pair > x.trajs_per_pair);
        assert_ne!(x.seed, c.seed);
    }

    #[test]
    fn paper_scale_is_bigger() {
        let q = xian_s(Scale::Quick);
        let p = xian_s(Scale::Paper);
        assert!(p.num_candidate_pairs > q.num_candidate_pairs);
        assert!(p.grid.width > q.grid.width);
    }

    #[test]
    fn quick_cities_generate() {
        // Smoke test: generation succeeds and yields non-empty splits.
        let city = tad_trajsim::generate_city(&xian_s(Scale::Quick));
        assert!(city.data.train.len() > 100, "{}", city.data.summary());
        assert!(!city.data.test_ood.is_empty());
        assert!(!city.data.detour.is_empty());
        assert!(!city.data.switch.is_empty());
    }
}
