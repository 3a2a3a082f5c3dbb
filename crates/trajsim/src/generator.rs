//! End-to-end city + dataset generation.
//!
//! One [`CityConfig`] fully determines a synthetic city and its datasets
//! (seeded), mirroring the paper's setup: sample popular candidate SD pairs,
//! record many trajectories per pair, split them half train / half ID test,
//! record trajectories of fresh uniformly-sampled SD pairs as the OOD test
//! set, and generate Detour/Switch anomaly sets from in-distribution
//! trajectories.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc;
use std::thread;
use tad_roadnet::dijkstra::SegmentSearch;
use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
use tad_roadnet::{RoadNetwork, SegmentId};

use crate::anomaly::{make_detour, make_switch, AnomalyConfig};
use crate::dataset::{CityDatasets, SdPair, Trajectory};
use crate::preference::{PreferenceConfig, RoadPreference};
use crate::routing::{cheapest_route, RouteChoiceConfig, RouteCosts};
use crate::sd::{sample_candidate_pairs, sample_ood_pairs, SdConfig};

/// Full configuration of a synthetic city and its datasets.
#[derive(Clone, Debug)]
pub struct CityConfig {
    /// Display name ("xian-s", "chengdu-s", ...).
    pub name: String,
    /// Road-network shape.
    pub grid: GridCityConfig,
    /// Hidden-confounder field.
    pub pref: PreferenceConfig,
    /// Route-choice model.
    pub route: RouteChoiceConfig,
    /// SD sampling.
    pub sd: SdConfig,
    /// Anomaly generation.
    pub anomaly: AnomalyConfig,
    /// Number of popular candidate SD pairs (the paper uses 100).
    pub num_candidate_pairs: usize,
    /// Trajectories recorded per candidate pair (half train, half ID test).
    pub trajs_per_pair: usize,
    /// Number of unseen (OOD) SD pairs.
    pub num_ood_pairs: usize,
    /// Trajectories recorded per OOD pair.
    pub trajs_per_ood_pair: usize,
    /// Anomalies generated per strategy (Detour and Switch each).
    pub num_anomalies: usize,
    /// Master seed; every derived stream is deterministic given it.
    pub seed: u64,
}

impl CityConfig {
    /// A laptop-scale city used by unit and integration tests.
    pub fn test_scale(seed: u64) -> Self {
        CityConfig {
            name: format!("test-city-{seed}"),
            grid: GridCityConfig { width: 8, height: 8, ..GridCityConfig::tiny() },
            pref: PreferenceConfig { num_pois: 3, ..Default::default() },
            route: RouteChoiceConfig::default(),
            sd: SdConfig { min_segments: 6, ..Default::default() },
            anomaly: AnomalyConfig::default(),
            num_candidate_pairs: 12,
            trajs_per_pair: 8,
            num_ood_pairs: 12,
            trajs_per_ood_pair: 2,
            num_anomalies: 24,
            seed,
        }
    }
}

/// A generated city: network, ground-truth confounder, SD pools, datasets.
#[derive(Clone, Debug)]
pub struct City {
    /// Display name.
    pub name: String,
    /// The road network (its segment count is the model vocabulary).
    pub net: RoadNetwork,
    /// Ground-truth road preference (never shown to the models).
    pub pref: RoadPreference,
    /// In-distribution SD pairs.
    pub candidate_pairs: Vec<SdPair>,
    /// Out-of-distribution SD pairs.
    pub ood_pairs: Vec<SdPair>,
    /// Train / test splits and anomaly sets.
    pub data: CityDatasets,
}

/// Generates a city and all of its datasets from a config. Deterministic in
/// `cfg.seed`.
///
/// One [`SegmentSearch`] serves every shortest path the generator runs. The
/// calling thread is the only one that draws from the seeded rng: while
/// trips are recorded it draws each trip's slot and perceived costs in trip
/// order, and one scoped helper thread, `tad-trajsim-route`, runs their
/// searches, which draw nothing, so the city is the same bit for bit as a
/// one-thread run's.
pub fn generate_city(cfg: &CityConfig) -> City {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = generate_grid_city(&cfg.grid, &mut rng);
    let pref = RoadPreference::generate(&net, &cfg.pref, &mut rng);
    let mut search = SegmentSearch::new(&net);

    let candidate_pairs =
        sample_candidate_pairs(&mut search, &pref, cfg.num_candidate_pairs, &cfg.sd, &mut rng);
    assert!(
        !candidate_pairs.is_empty(),
        "no candidate SD pairs found; relax SdConfig::min_segments or grow the grid"
    );
    let ood_pairs =
        sample_ood_pairs(&mut search, cfg.num_ood_pairs, &cfg.sd, &candidate_pairs, &mut rng);

    // Every recorded trip in draw order, with the split it joins.
    let mut trips = Vec::new();
    for pair in &candidate_pairs {
        for i in 0..cfg.trajs_per_pair {
            trips.push((*pair, if i % 2 == 0 { Split::Train } else { Split::TestId }));
        }
    }
    for pair in &ood_pairs {
        trips.extend((0..cfg.trajs_per_ood_pair).map(|_| (*pair, Split::TestOod)));
    }
    let costs = RouteCosts::new(&net, &pref, &cfg.route);
    let routes = record_routes(&mut search, &costs, pref.num_time_slots(), &trips, &mut rng);

    let (mut train, mut test_id, mut test_ood) = (Vec::new(), Vec::new(), Vec::new());
    for ((_, split), (slot, route)) in trips.iter().zip(routes) {
        let Some(route) = route.filter(|r| r.len() >= cfg.sd.min_segments / 2) else { continue };
        let t = Trajectory::normal(route, slot);
        match split {
            Split::Train => train.push(t),
            Split::TestId => test_id.push(t),
            Split::TestOod => test_ood.push(t),
        }
    }

    // Pool all recorded in-distribution trajectories by SD pair for Switch.
    let mut by_sd: HashMap<SdPair, Vec<&Trajectory>> = HashMap::new();
    for t in train.iter().chain(test_id.iter()) {
        by_sd.entry(t.sd_pair()).or_default().push(t);
    }

    let mut detour = Vec::new();
    let mut switch = Vec::new();
    if !test_id.is_empty() {
        let mut attempts = 0usize;
        let budget = cfg.num_anomalies * 20;
        while detour.len() < cfg.num_anomalies && attempts < budget {
            attempts += 1;
            let base = &test_id[rng.gen_range(0..test_id.len())];
            if let Some(a) = make_detour(&mut search, base, &cfg.anomaly, &mut rng) {
                detour.push(a);
            }
        }
        attempts = 0;
        while switch.len() < cfg.num_anomalies && attempts < budget {
            attempts += 1;
            let base = &test_id[rng.gen_range(0..test_id.len())];
            let pool = by_sd.get(&base.sd_pair()).map(Vec::as_slice).unwrap_or(&[]);
            if let Some(a) = make_switch(&mut search, base, pool, &cfg.anomaly, &mut rng) {
                switch.push(a);
            }
        }
    }

    City {
        name: cfg.name.clone(),
        net,
        pref,
        candidate_pairs,
        ood_pairs,
        data: CityDatasets { train, test_id, test_ood, detour, switch },
    }
}

/// The split a recorded trip joins.
#[derive(Clone, Copy)]
enum Split {
    Train,
    TestId,
    TestOod,
}

/// Perceived-cost vectors in flight between the drawing thread and the
/// search thread.
const ROUTES_IN_FLIGHT: usize = 16;

/// Records one route per trip: each trip's departure slot and its route
/// (`None` when unreachable), in trip order.
///
/// The calling thread draws every trip's slot and
/// [`RouteCosts::perceive`]s, in trip order, and streams them to the
/// `tad-trajsim-route` thread, which runs [`cheapest_route`] on `search`.
/// A panic there is a panic here.
fn record_routes(
    search: &mut SegmentSearch<'_>,
    costs: &RouteCosts,
    num_slots: usize,
    trips: &[(SdPair, Split)],
    rng: &mut StdRng,
) -> Vec<(u8, Option<Vec<SegmentId>>)> {
    thread::scope(|scope| {
        let (to_helper, inbox) = mpsc::sync_channel::<(SdPair, Vec<f64>)>(ROUTES_IN_FLIGHT);
        let helper = thread::Builder::new()
            .name("tad-trajsim-route".into())
            .spawn_scoped(scope, move || {
                inbox
                    .into_iter()
                    .map(|(pair, perceived)| {
                        cheapest_route(search, &perceived, pair.source, pair.dest)
                    })
                    .collect::<Vec<_>>()
            })
            .expect("spawn the route search thread");
        let mut slots = Vec::with_capacity(trips.len());
        for (pair, _) in trips {
            let slot = rng.gen_range(0..num_slots);
            slots.push(slot as u8);
            // A send fails only once the helper is gone; its join says why.
            if to_helper.send((*pair, costs.perceive(slot, rng))).is_err() {
                break;
            }
        }
        // Hanging up is what ends the helper's loop.
        drop(to_helper);
        let routes = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        slots.into_iter().zip(routes).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Label;

    #[test]
    fn generated_city_has_all_splits() {
        let city = generate_city(&CityConfig::test_scale(7));
        let d = &city.data;
        assert!(!d.train.is_empty(), "train empty: {}", d.summary());
        assert!(!d.test_id.is_empty());
        assert!(!d.test_ood.is_empty());
        assert!(!d.detour.is_empty());
        assert!(!d.switch.is_empty());
    }

    #[test]
    fn all_trajectories_are_valid_walks() {
        let city = generate_city(&CityConfig::test_scale(8));
        let d = &city.data;
        for t in
            d.train.iter().chain(&d.test_id).chain(&d.test_ood).chain(&d.detour).chain(&d.switch)
        {
            assert!(city.net.is_connected_path(&t.segments), "broken walk");
            assert!(!t.segments.is_empty());
            assert!((t.time_slot as usize) < city.pref.num_time_slots());
        }
    }

    #[test]
    fn labels_match_splits() {
        let city = generate_city(&CityConfig::test_scale(9));
        assert!(city.data.train.iter().all(|t| t.label == Label::Normal));
        assert!(city.data.test_ood.iter().all(|t| t.label == Label::Normal));
        assert!(city.data.detour.iter().all(|t| t.label == Label::Detour));
        assert!(city.data.switch.iter().all(|t| t.label == Label::Switch));
    }

    #[test]
    fn train_and_id_share_sd_pairs_ood_does_not() {
        let city = generate_city(&CityConfig::test_scale(10));
        let train_pairs: std::collections::HashSet<_> =
            city.data.train.iter().map(|t| t.sd_pair()).collect();
        // Every ID-test SD pair was seen in training.
        for t in &city.data.test_id {
            assert!(train_pairs.contains(&t.sd_pair()), "ID pair unseen in train");
        }
        // No OOD SD pair was seen in training.
        for t in &city.data.test_ood {
            assert!(!train_pairs.contains(&t.sd_pair()), "OOD pair leaked into train");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_city(&CityConfig::test_scale(11));
        let b = generate_city(&CityConfig::test_scale(11));
        assert_eq!(a.data.train, b.data.train);
        assert_eq!(a.data.detour, b.data.detour);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_city(&CityConfig::test_scale(1));
        let b = generate_city(&CityConfig::test_scale(2));
        assert_ne!(a.data.train, b.data.train);
    }
}
