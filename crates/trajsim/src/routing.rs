//! Route choice: how drivers turn an SD pair into a trajectory (`C → T`
//! under the influence of `E → T`).
//!
//! Drivers follow a random-utility model: each segment's perceived cost is
//! the preference-weighted travel cost of [`RoadPreference::route_cost`]
//! perturbed by multiplicative log-normal noise, and the driver takes the
//! cheapest perceived route. Re-sampling the noise yields the natural route
//! diversity real taxi data shows for one SD pair, while preference keeps
//! popular corridors over-represented — exactly the bias CausalTAD must
//! correct.

use rand::Rng;
use tad_roadnet::dijkstra::SegmentSearch;
use tad_roadnet::{RoadNetwork, SegmentId};

use crate::preference::RoadPreference;

/// Parameters of the route-choice model.
#[derive(Clone, Debug)]
pub struct RouteChoiceConfig {
    /// Strength of the preference term in perceived cost (`E → T`);
    /// 0 makes drivers pure shortest-path followers.
    pub gamma: f64,
    /// Standard deviation of per-segment log-normal utility noise; larger
    /// values produce more route diversity per SD pair.
    pub utility_noise: f64,
}

impl Default for RouteChoiceConfig {
    fn default() -> Self {
        RouteChoiceConfig { gamma: 0.7, utility_noise: 0.45 }
    }
}

/// [`RoadPreference::route_cost`] of every segment in every time slot at
/// one `gamma`: what every trip of a city prices its routes from. Built
/// once per city — the cost is a `powf` per segment, and a route search
/// relaxes each segment's edges many times over.
#[derive(Clone, Debug)]
pub struct RouteCosts {
    /// `per_slot[slot][segment]`.
    per_slot: Vec<Vec<f64>>,
    utility_noise: f64,
}

impl RouteCosts {
    /// Prices `net` under `pref` for the route-choice model `cfg`.
    pub fn new(net: &RoadNetwork, pref: &RoadPreference, cfg: &RouteChoiceConfig) -> RouteCosts {
        let per_slot = (0..pref.num_time_slots())
            .map(|slot| {
                net.segment_ids().map(|s| pref.route_cost(net, s, slot, cfg.gamma)).collect()
            })
            .collect();
        RouteCosts { per_slot, utility_noise: cfg.utility_noise }
    }

    /// One driver's view of the network on one trip departing in `slot`:
    /// every segment's route cost times its own log-normal noise draw, in
    /// segment order. This is the trip's whole use of `rng`; the search on
    /// the result ([`cheapest_route`]) draws nothing.
    pub fn perceive<R: Rng + ?Sized>(&self, slot: usize, rng: &mut R) -> Vec<f64> {
        let base = &self.per_slot[slot % self.per_slot.len()];
        base.iter().map(|&cost| cost * (self.utility_noise * gauss(rng)).exp()).collect()
    }
}

/// The cheapest route from `source` to `dest` (both road segments,
/// inclusive) under `perceived` costs from [`RouteCosts::perceive`].
/// Returns `None` only if the pair is unreachable.
pub fn cheapest_route(
    search: &mut SegmentSearch<'_>,
    perceived: &[f64],
    source: SegmentId,
    dest: SegmentId,
) -> Option<Vec<SegmentId>> {
    Some(search.path(source, dest, |s| Some(perceived[s.index()]))?.segments)
}

/// Samples one route from `source` to `dest` (both road segments, inclusive)
/// departing in `slot`: [`RouteCosts::perceive`], then [`cheapest_route`].
/// Returns `None` only if the pair is unreachable.
pub fn choose_route<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    costs: &RouteCosts,
    source: SegmentId,
    dest: SegmentId,
    slot: usize,
    rng: &mut R,
) -> Option<Vec<SegmentId>> {
    cheapest_route(search, &costs.perceive(slot, rng), source, dest)
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::{PreferenceConfig, RoadPreference};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
    use tad_roadnet::NodeId;

    fn setup() -> (RoadNetwork, RoadPreference) {
        let mut rng = StdRng::seed_from_u64(20);
        let net = generate_grid_city(&GridCityConfig::tiny(), &mut rng);
        let pref = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng);
        (net, pref)
    }

    fn far_pair(net: &RoadNetwork) -> (SegmentId, SegmentId) {
        let s = net.out_segments(NodeId(0))[0];
        let last = NodeId((net.num_nodes() - 1) as u32);
        let d = net.in_segments(last)[0];
        (s, d)
    }

    #[test]
    fn routes_are_connected_and_anchored() {
        let (net, pref) = setup();
        let (s, d) = far_pair(&net);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let costs = RouteCosts::new(&net, &pref, &RouteChoiceConfig::default());
            let route = choose_route(&mut SegmentSearch::new(&net), &costs, s, d, 0, &mut rng)
                .expect("reachable");
            assert!(net.is_connected_path(&route));
            assert_eq!(route.first(), Some(&s));
            assert_eq!(route.last(), Some(&d));
        }
    }

    #[test]
    fn noise_creates_route_diversity() {
        let (net, pref) = setup();
        let (s, d) = far_pair(&net);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = RouteChoiceConfig { utility_noise: 0.5, ..Default::default() };
        let costs = RouteCosts::new(&net, &pref, &cfg);
        let routes: std::collections::HashSet<Vec<u32>> = (0..20)
            .map(|_| {
                choose_route(&mut SegmentSearch::new(&net), &costs, s, d, 0, &mut rng)
                    .unwrap()
                    .iter()
                    .map(|seg| seg.0)
                    .collect()
            })
            .collect();
        assert!(routes.len() > 1, "expected diverse routes, got {}", routes.len());
    }

    #[test]
    fn zero_noise_is_deterministic() {
        let (net, pref) = setup();
        let (s, d) = far_pair(&net);
        let cfg = RouteChoiceConfig { utility_noise: 0.0, ..Default::default() };
        let costs = RouteCosts::new(&net, &pref, &cfg);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(4);
        let a = choose_route(&mut SegmentSearch::new(&net), &costs, s, d, 0, &mut rng_a).unwrap();
        let b = choose_route(&mut SegmentSearch::new(&net), &costs, s, d, 0, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn preference_pulls_routes_onto_popular_roads() {
        let (net, pref) = setup();
        let (s, d) = far_pair(&net);
        let mut rng = StdRng::seed_from_u64(5);
        let mean_popularity = |gamma: f64, rng: &mut StdRng| -> f64 {
            let costs =
                RouteCosts::new(&net, &pref, &RouteChoiceConfig { gamma, utility_noise: 0.1 });
            let mut total = 0.0;
            let mut count = 0usize;
            for _ in 0..15 {
                let route =
                    choose_route(&mut SegmentSearch::new(&net), &costs, s, d, 0, rng).unwrap();
                total += route.iter().map(|&seg| pref.weight(seg)).sum::<f64>();
                count += route.len();
            }
            total / count as f64
        };
        let without = mean_popularity(0.0, &mut rng);
        let with = mean_popularity(1.0, &mut rng);
        assert!(
            with > without,
            "preference-driven routes should be more popular: {with:.3} vs {without:.3}"
        );
    }
}
