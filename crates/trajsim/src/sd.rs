//! SD-pair sampling: the `E → C` edge of the causal graph.
//!
//! *Candidate* (in-distribution) pairs are drawn with endpoints proportional
//! to segment popularity — "passengers tend to get in cars on
//! parking-friendly paths and their destinations are usually some popular
//! road segments" — so the training distribution of `C` is confounded by
//! `E`. *OOD* pairs are drawn uniformly over segments, producing the unseen,
//! popularity-agnostic SD pairs of the paper's out-of-distribution split.

use rand::Rng;
use tad_roadnet::dijkstra::{length_cost, SegmentSearch};
use tad_roadnet::SegmentId;

use crate::dataset::SdPair;
use crate::preference::RoadPreference;

/// Configuration for SD-pair sampling.
#[derive(Clone, Debug)]
pub struct SdConfig {
    /// Exponent on popularity when sampling candidate endpoints
    /// (`E → C` strength; 0 removes the confounding of `C`).
    pub popularity_bias: f64,
    /// Minimum trip length in segments (the paper filters trips `< 30`).
    pub min_segments: usize,
    /// Maximum trip length in segments (0 disables). Keeping ID and OOD
    /// length distributions comparable matters: the debiasing scaling
    /// factor sums over segments, so wildly different lengths would
    /// confound the evaluation.
    pub max_segments: usize,
    /// Give up after this many rejected draws per requested pair.
    pub max_attempts: usize,
}

impl Default for SdConfig {
    fn default() -> Self {
        SdConfig { popularity_bias: 1.8, min_segments: 10, max_segments: 26, max_attempts: 200 }
    }
}

/// Samples `count` distinct candidate SD pairs with popularity-biased
/// endpoints (`E → C`). Every length check runs on `search`.
pub fn sample_candidate_pairs<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    pref: &RoadPreference,
    count: usize,
    cfg: &SdConfig,
    rng: &mut R,
) -> Vec<SdPair> {
    let weights: Vec<f64> =
        search.net().segment_ids().map(|s| pref.weight(s).powf(cfg.popularity_bias)).collect();
    let total: f64 = weights.iter().sum();
    sample_pairs(search, count, cfg, rng, |rng| weighted_draw(&weights, total, rng))
}

/// Samples `count` distinct OOD SD pairs with uniform endpoints
/// (the distribution shift of the paper's OOD evaluation). Every length
/// check runs on `search`.
pub fn sample_ood_pairs<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    count: usize,
    cfg: &SdConfig,
    exclude: &[SdPair],
    rng: &mut R,
) -> Vec<SdPair> {
    let n = search.net().num_segments();
    let mut pairs =
        sample_pairs(search, count + exclude.len(), cfg, rng, |rng| rng.gen_range(0..n));
    pairs.retain(|p| !exclude.contains(p));
    pairs.truncate(count);
    pairs
}

fn sample_pairs<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    count: usize,
    cfg: &SdConfig,
    rng: &mut R,
    mut draw: impl FnMut(&mut R) -> usize,
) -> Vec<SdPair> {
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = cfg.max_attempts * count.max(1);
    while pairs.len() < count && attempts < budget {
        attempts += 1;
        let s = SegmentId(draw(rng) as u32);
        let d = SegmentId(draw(rng) as u32);
        if s == d {
            continue;
        }
        let pair = SdPair { source: s, dest: d };
        if pairs.contains(&pair) {
            continue;
        }
        // Require a route of at least `min_segments` hops; shortest-path
        // length lower-bounds every sampled route's hop count only loosely,
        // so check the actual shortest hop count.
        match search.path(s, d, length_cost(search.net())) {
            Some(path)
                if path.segments.len() >= cfg.min_segments
                    && (cfg.max_segments == 0 || path.segments.len() <= cfg.max_segments) =>
            {
                pairs.push(pair)
            }
            _ => {}
        }
    }
    pairs
}

/// Draws an index proportional to `weights`, whose sum is `total`.
fn weighted_draw<R: Rng + ?Sized>(weights: &[f64], total: f64, rng: &mut R) -> usize {
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::{PreferenceConfig, RoadPreference};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
    use tad_roadnet::RoadNetwork;

    fn setup() -> (RoadNetwork, RoadPreference) {
        let mut rng = StdRng::seed_from_u64(30);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let pref = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng);
        (net, pref)
    }

    #[test]
    fn candidate_pairs_distinct_and_long_enough() {
        let (net, pref) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SdConfig { min_segments: 6, ..Default::default() };
        let mut search = SegmentSearch::new(&net);
        let pairs = sample_candidate_pairs(&mut search, &pref, 20, &cfg, &mut rng);
        assert_eq!(pairs.len(), 20);
        let unique: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len());
        for p in &pairs {
            let path = search.path(p.source, p.dest, |s| Some(net.segment(s).length)).unwrap();
            assert!(path.segments.len() >= 6);
        }
    }

    #[test]
    fn ood_pairs_exclude_candidates() {
        let (net, pref) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SdConfig { min_segments: 6, ..Default::default() };
        let candidates =
            sample_candidate_pairs(&mut SegmentSearch::new(&net), &pref, 10, &cfg, &mut rng);
        let ood = sample_ood_pairs(&mut SegmentSearch::new(&net), 15, &cfg, &candidates, &mut rng);
        assert!(!ood.is_empty());
        for p in &ood {
            assert!(!candidates.contains(p), "OOD pair duplicates a candidate");
        }
    }

    #[test]
    fn popularity_bias_shifts_endpoint_distribution() {
        let (net, pref) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mean_weight = |pairs: &[SdPair]| -> f64 {
            pairs.iter().flat_map(|p| [pref.weight(p.source), pref.weight(p.dest)]).sum::<f64>()
                / (2 * pairs.len()) as f64
        };
        let cfg = SdConfig { min_segments: 5, ..Default::default() };
        let biased =
            sample_candidate_pairs(&mut SegmentSearch::new(&net), &pref, 40, &cfg, &mut rng);
        let uniform = sample_ood_pairs(&mut SegmentSearch::new(&net), 40, &cfg, &[], &mut rng);
        assert!(
            mean_weight(&biased) > mean_weight(&uniform),
            "candidate endpoints should be more popular on average"
        );
    }

    #[test]
    fn weighted_draw_respects_weights() {
        let weights = [0.0, 0.0, 5.0, 0.0];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            assert_eq!(weighted_draw(&weights, 5.0, &mut rng), 2);
        }
    }

    #[test]
    fn impossible_min_length_yields_empty() {
        let (net, pref) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SdConfig { min_segments: 10_000, max_attempts: 5, ..Default::default() };
        let pairs = sample_candidate_pairs(&mut SegmentSearch::new(&net), &pref, 3, &cfg, &mut rng);
        assert!(pairs.is_empty());
    }
}
