//! The hidden confounder `E`: a road-preference field.
//!
//! The paper models trajectory generation with a causal graph where an
//! unobserved road preference `E` — "the mixture effects of many factors
//! such as the weather, road level, speed limit" plus POIs ("a mall at
//! p5") — causes both the SD-pair distribution (`E → C`) and route choice
//! (`E → T`). This module makes `E` explicit and samplable:
//!
//! * every segment gets a **popularity weight** driven by its road class,
//!   proximity to POI hotspots, and log-normal noise;
//! * every `(time slot, segment)` pair gets a **congestion multiplier**,
//!   giving DeepTEA's time-dependence something real to model (and serving
//!   the paper's §V-E.3 future-work extension).
//!
//! Downstream, `tad-trajsim::sd` samples SD pairs proportional to these
//! weights (`E → C`) and `tad-trajsim::routing` prices routes with them
//! (`E → T`). The models under test never see this struct — it is the
//! ground-truth confounder they must debias away.

use rand::Rng;
use tad_roadnet::geometry::Point;
use tad_roadnet::{RoadClass, RoadNetwork, SegmentId};

/// Configuration of the preference field.
#[derive(Clone, Debug)]
pub struct PreferenceConfig {
    /// Popularity multiplier per road class `[Major, Arterial, Local]`.
    pub class_weight: [f64; 3],
    /// Number of POI hotspots (malls, stations, office clusters).
    pub num_pois: usize,
    /// Popularity boost at the centre of a POI (decays with distance).
    pub poi_boost: f64,
    /// Radius of POI influence in metres.
    pub poi_radius: f64,
    /// Standard deviation of log-normal popularity noise.
    pub noise_std: f64,
    /// Number of departure-time slots in a day.
    pub num_time_slots: usize,
    /// Peak congestion multiplier amplitude (0 disables congestion).
    pub congestion_amp: f64,
}

impl Default for PreferenceConfig {
    fn default() -> Self {
        PreferenceConfig {
            class_weight: [3.0, 1.6, 0.6],
            num_pois: 5,
            poi_boost: 4.0,
            poi_radius: 400.0,
            noise_std: 0.25,
            num_time_slots: 4,
            congestion_amp: 0.8,
        }
    }
}

/// The instantiated confounder: per-segment popularity and per-slot
/// congestion.
#[derive(Clone, Debug)]
pub struct RoadPreference {
    weights: Vec<f64>,
    /// `congestion[slot][segment]`, multiplier `>= 1`.
    congestion: Vec<Vec<f64>>,
    num_time_slots: usize,
}

impl RoadPreference {
    /// Samples a preference field for `net`.
    pub fn generate<R: Rng + ?Sized>(
        net: &RoadNetwork,
        cfg: &PreferenceConfig,
        rng: &mut R,
    ) -> Self {
        assert!(cfg.num_time_slots >= 1, "need at least one time slot");
        // POI hotspots at random intersections.
        let pois: Vec<Point> = (0..cfg.num_pois)
            .map(|_| {
                let n = rng.gen_range(0..net.num_nodes());
                net.node(tad_roadnet::NodeId(n as u32)).pos
            })
            .collect();

        let mut weights = Vec::with_capacity(net.num_segments());
        for s in net.segment_ids() {
            let seg = net.segment(s);
            let class_w = cfg.class_weight[seg.class.as_u8() as usize];
            let mid = net.segment_midpoint(s);
            let poi_w: f64 = pois
                .iter()
                .map(|p| {
                    let d = mid.dist(p);
                    1.0 + (cfg.poi_boost - 1.0)
                        * (-d * d / (2.0 * cfg.poi_radius * cfg.poi_radius)).exp()
                })
                .fold(1.0, f64::max);
            let noise = (cfg.noise_std * gauss(rng)).exp();
            weights.push(class_w * poi_w * noise);
        }

        // Congestion: each slot has a random set of congested corridors;
        // local streets congest more at peak slots, mimicking rush hours.
        let mut congestion = Vec::with_capacity(cfg.num_time_slots);
        for slot in 0..cfg.num_time_slots {
            let peak = peak_factor(slot, cfg.num_time_slots);
            let per_seg: Vec<f64> = net
                .segment_ids()
                .map(|s| {
                    let class_sensitivity = match net.segment(s).class {
                        RoadClass::Major => 1.0,
                        RoadClass::Arterial => 0.7,
                        RoadClass::Local => 0.4,
                    };
                    let noise: f64 = rng.gen_range(0.0..1.0);
                    1.0 + cfg.congestion_amp * peak * class_sensitivity * noise
                })
                .collect();
            congestion.push(per_seg);
        }

        RoadPreference { weights, congestion, num_time_slots: cfg.num_time_slots }
    }

    /// Popularity weight of a segment (`> 0`).
    #[inline]
    pub fn weight(&self, seg: SegmentId) -> f64 {
        self.weights[seg.index()]
    }

    /// Congestion multiplier for a segment in a time slot (`>= 1`).
    #[inline]
    pub fn congestion(&self, slot: usize, seg: SegmentId) -> f64 {
        self.congestion[slot % self.num_time_slots][seg.index()]
    }

    /// Number of time slots.
    pub fn num_time_slots(&self) -> usize {
        self.num_time_slots
    }

    /// The generalised travel cost drivers perceive for a segment: length
    /// scaled up by congestion and down by preference. `gamma` controls how
    /// strongly preference bends routes (`E → T` strength).
    pub fn route_cost(&self, net: &RoadNetwork, seg: SegmentId, slot: usize, gamma: f64) -> f64 {
        let base = net.segment(seg).length;
        base * self.congestion(slot, seg) / self.weight(seg).powf(gamma)
    }

    /// Normalised popularity in `[0, 1]` relative to the most popular
    /// segment; convenient as a feature and in reports.
    pub fn relative_popularity(&self, seg: SegmentId) -> f64 {
        let max = self.weights.iter().copied().fold(f64::MIN, f64::max);
        self.weights[seg.index()] / max
    }
}

/// Rush-hour profile over slots: slots 1 and `n-1` (morning/evening) peak.
fn peak_factor(slot: usize, num_slots: usize) -> f64 {
    if num_slots == 1 {
        return 1.0;
    }
    let phase = slot as f64 / num_slots as f64 * 2.0 * std::f64::consts::PI;
    0.5 + 0.5 * (2.0 * phase).sin().abs()
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_roadnet::grid::{generate_grid_city, GridCityConfig};

    fn setup() -> (RoadNetwork, RoadPreference) {
        let mut rng = StdRng::seed_from_u64(10);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let pref = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng);
        (net, pref)
    }

    #[test]
    fn weights_positive_and_finite() {
        let (net, pref) = setup();
        for s in net.segment_ids() {
            let w = pref.weight(s);
            assert!(w.is_finite() && w > 0.0, "weight {w}");
        }
    }

    #[test]
    fn major_roads_more_popular_on_average() {
        let (net, pref) = setup();
        let mean_for = |class: RoadClass| {
            let (sum, n) = net
                .segment_ids()
                .filter(|&s| net.segment(s).class == class)
                .fold((0.0, 0usize), |(sum, n), s| (sum + pref.weight(s), n + 1));
            sum / n.max(1) as f64
        };
        assert!(mean_for(RoadClass::Major) > mean_for(RoadClass::Local));
    }

    #[test]
    fn congestion_at_least_one() {
        let (net, pref) = setup();
        for slot in 0..pref.num_time_slots() {
            for s in net.segment_ids() {
                assert!(pref.congestion(slot, s) >= 1.0);
            }
        }
    }

    #[test]
    fn route_cost_monotone_in_gamma_for_popular_segments() {
        let (net, pref) = setup();
        // Pick the most popular segment: cost must fall as gamma rises.
        let best =
            net.segment_ids().max_by(|&a, &b| pref.weight(a).total_cmp(&pref.weight(b))).unwrap();
        assert!(pref.weight(best) > 1.0, "most popular weight should exceed 1");
        let c0 = pref.route_cost(&net, best, 0, 0.0);
        let c1 = pref.route_cost(&net, best, 0, 1.0);
        assert!(c1 < c0);
    }

    #[test]
    fn relative_popularity_normalised() {
        let (net, pref) = setup();
        let max = net.segment_ids().map(|s| pref.relative_popularity(s)).fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        for s in net.segment_ids() {
            let p = pref.relative_popularity(s);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut StdRng::seed_from_u64(1));
        let a = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng_a);
        let b = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng_b);
        for s in net.segment_ids() {
            assert_eq!(a.weight(s), b.weight(s));
        }
    }
}
