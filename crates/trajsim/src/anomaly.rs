//! Anomaly generation on the road network (paper §VI-A2).
//!
//! The paper's two strategies, adapted verbatim to segment walks:
//!
//! * **Detour** — "choose three indexes `i < k < j`, temporarily delete
//!   `t_k` from the road network, and apply Dijkstra to obtain the shortest
//!   path from `t_i` to `t_j`; replace the sub-trajectory with this path."
//! * **Switch** — "find the trajectories of the same SD pair, sample a
//!   trajectory `t'` with a low similarity score
//!   (`|t' ∩ t| / |t' ∪ t|`), then switch from `t` to `t'`."

use rand::Rng;
use tad_roadnet::dijkstra::{length_cost, SegmentSearch};
use tad_roadnet::kpaths::k_shortest_paths;
use tad_roadnet::SegmentId;

use crate::dataset::{Label, Trajectory};

/// Parameters of the anomaly generators.
#[derive(Clone, Debug)]
pub struct AnomalyConfig {
    /// Minimum length ratio of the rerouted section over the replaced one
    /// ("appropriate detour distance").
    pub detour_min_ratio: f64,
    /// Maximum accepted ratio (extremely long reroutes are discarded as
    /// unrealistic).
    pub detour_max_ratio: f64,
    /// Random `(i, k, j)` draws before giving up on a trajectory.
    pub max_attempts: usize,
    /// Maximum Jaccard similarity for an acceptable switch target `t'`.
    pub switch_similarity_max: f64,
    /// Alternatives requested from Yen's algorithm when no recorded
    /// dissimilar trajectory exists for the SD pair.
    pub switch_fallback_k: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            detour_min_ratio: 1.15,
            detour_max_ratio: 2.0,
            max_attempts: 60,
            switch_similarity_max: 0.55,
            switch_fallback_k: 6,
        }
    }
}

/// Creates a Detour anomaly from `traj`, or `None` if no acceptable detour
/// exists within the attempt budget. Every reroute runs on `search`.
pub fn make_detour<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    traj: &Trajectory,
    cfg: &AnomalyConfig,
    rng: &mut R,
) -> Option<Trajectory> {
    let net = search.net();
    let n = traj.segments.len();
    if n < 5 {
        return None;
    }
    for _ in 0..cfg.max_attempts {
        // 0-based indexes with i < k < j; the rerouted section is capped at
        // half the trajectory so the total length stays realistic
        // ("appropriate detour distance").
        let i = rng.gen_range(0..n - 2);
        let j_hi = (i + 2 + n / 2).min(n);
        let j = rng.gen_range(i + 2..j_hi.max(i + 3));
        let k = rng.gen_range(i + 1..j);
        let banned = traj.segments[k];
        let from = traj.segments[i];
        let to = traj.segments[j];
        let Some(reroute) =
            search.path(from, to, |s| if s == banned { None } else { Some(net.segment(s).length) })
        else {
            continue;
        };
        let original = &traj.segments[i..=j];
        if reroute.segments == original {
            continue;
        }
        let orig_len = net.path_length(original);
        let ratio = reroute.cost / orig_len;
        if ratio < cfg.detour_min_ratio || ratio > cfg.detour_max_ratio {
            continue;
        }
        let mut segments = traj.segments[..i].to_vec();
        segments.extend_from_slice(&reroute.segments);
        segments.extend_from_slice(&traj.segments[j + 1..]);
        if !net.is_connected_path(&segments) {
            continue;
        }
        return Some(Trajectory { segments, time_slot: traj.time_slot, label: Label::Detour });
    }
    None
}

/// Creates a Switch anomaly from `traj`.
///
/// `pool` holds recorded trajectories with the *same SD pair*; a dissimilar
/// one is sampled as the target route `t'`. When no recorded trajectory is
/// dissimilar enough, Yen's k-shortest paths provide a synthetic
/// alternative route (so Switch anomalies exist even for sparse SD pairs).
/// Every search, Yen's included, runs on `search`.
pub fn make_switch<R: Rng + ?Sized>(
    search: &mut SegmentSearch<'_>,
    traj: &Trajectory,
    pool: &[&Trajectory],
    cfg: &AnomalyConfig,
    rng: &mut R,
) -> Option<Trajectory> {
    let net = search.net();
    let n = traj.segments.len();
    if n < 5 {
        return None;
    }

    // Candidate alternative routes: recorded dissimilar trajectories first.
    let mut alternatives: Vec<Vec<SegmentId>> = pool
        .iter()
        .filter(|t| t.segments != traj.segments && traj.jaccard(t) <= cfg.switch_similarity_max)
        .map(|t| t.segments.clone())
        .collect();
    if alternatives.is_empty() {
        let sd = traj.sd_pair();
        let traj_set: std::collections::HashSet<_> = traj.segments.iter().copied().collect();
        alternatives =
            k_shortest_paths(search, sd.source, sd.dest, cfg.switch_fallback_k, length_cost(net))
                .into_iter()
                .map(|p| p.segments)
                .filter(|p| {
                    let inter = p.iter().filter(|s| traj_set.contains(s)).count();
                    let union = p.len() + traj_set.len() - inter;
                    p != &traj.segments
                        && (inter as f64 / union as f64) <= cfg.switch_similarity_max
                })
                .collect();
    }
    if alternatives.is_empty() {
        return None;
    }

    for _ in 0..cfg.max_attempts {
        let alt = &alternatives[rng.gen_range(0..alternatives.len())];
        // Switch point: partway through the observed route.
        let i = rng.gen_range(n / 4..(n / 2).max(n / 4 + 1));
        let from = traj.segments[i];
        // Rejoin t' at a position that keeps forward progress.
        let j_min = (alt.len() / 3).min(alt.len() - 1);
        let j = rng.gen_range(j_min..alt.len());
        let to = alt[j];
        if to == from {
            continue;
        }
        let Some(bridge) = search.path(from, to, length_cost(net)) else {
            continue;
        };
        let mut segments = traj.segments[..i].to_vec();
        segments.extend_from_slice(&bridge.segments);
        segments.extend_from_slice(&alt[j + 1..]);
        // Reject degenerate results: too similar to the original or broken.
        if !net.is_connected_path(&segments) || segments.len() < 4 {
            continue;
        }
        let candidate = Trajectory { segments, time_slot: traj.time_slot, label: Label::Switch };
        if candidate.segments == traj.segments {
            continue;
        }
        if candidate.sd_pair() != traj.sd_pair() {
            continue;
        }
        return Some(candidate);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::{PreferenceConfig, RoadPreference};
    use crate::routing::{choose_route, RouteChoiceConfig, RouteCosts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tad_roadnet::grid::{generate_grid_city, GridCityConfig};
    use tad_roadnet::{NodeId, RoadNetwork};

    fn setup() -> (RoadNetwork, RoadPreference, StdRng) {
        let mut rng = StdRng::seed_from_u64(40);
        let net = generate_grid_city(
            &GridCityConfig {
                width: 8,
                height: 8,
                missing_edge_prob: 0.0,
                ..GridCityConfig::tiny()
            },
            &mut rng,
        );
        let pref = RoadPreference::generate(&net, &PreferenceConfig::default(), &mut rng);
        (net, pref, rng)
    }

    fn long_trajectory(net: &RoadNetwork, pref: &RoadPreference, rng: &mut StdRng) -> Trajectory {
        let s = net.out_segments(NodeId(0))[0];
        let d = net.in_segments(NodeId((net.num_nodes() - 1) as u32))[0];
        let costs = RouteCosts::new(net, pref, &RouteChoiceConfig::default());
        Trajectory::normal(
            choose_route(&mut SegmentSearch::new(net), &costs, s, d, 0, rng).unwrap(),
            0,
        )
    }

    #[test]
    fn detour_is_connected_same_sd_and_longer() {
        let (net, pref, mut rng) = setup();
        let t = long_trajectory(&net, &pref, &mut rng);
        let detour =
            make_detour(&mut SegmentSearch::new(&net), &t, &AnomalyConfig::default(), &mut rng)
                .expect("detour");
        assert_eq!(detour.label, Label::Detour);
        assert!(net.is_connected_path(&detour.segments));
        assert_eq!(detour.sd_pair(), t.sd_pair());
        assert_ne!(detour.segments, t.segments);
    }

    #[test]
    fn detour_rejects_short_trajectories() {
        let (net, _, mut rng) = setup();
        let t = Trajectory::normal(vec![SegmentId(0), SegmentId(1)], 0);
        assert!(make_detour(
            &mut SegmentSearch::new(&net),
            &t,
            &AnomalyConfig::default(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn switch_uses_dissimilar_pool_route() {
        let (net, pref, mut rng) = setup();
        let t = long_trajectory(&net, &pref, &mut rng);
        // Build a pool with several diverse routes of the same SD pair.
        let sd = t.sd_pair();
        let diverse = RouteChoiceConfig { utility_noise: 0.6, ..Default::default() };
        let costs = RouteCosts::new(&net, &pref, &diverse);
        let pool_owned: Vec<Trajectory> = (0..10)
            .filter_map(|_| {
                choose_route(&mut SegmentSearch::new(&net), &costs, sd.source, sd.dest, 0, &mut rng)
                    .map(|r| Trajectory::normal(r, 0))
            })
            .collect();
        let pool: Vec<&Trajectory> = pool_owned.iter().collect();
        let switched = make_switch(
            &mut SegmentSearch::new(&net),
            &t,
            &pool,
            &AnomalyConfig::default(),
            &mut rng,
        );
        if let Some(sw) = switched {
            assert_eq!(sw.label, Label::Switch);
            assert!(net.is_connected_path(&sw.segments));
            assert_eq!(sw.sd_pair(), t.sd_pair());
            assert_ne!(sw.segments, t.segments);
        }
        // (None is acceptable when all sampled routes were too similar, but
        // the fallback below must then succeed.)
    }

    #[test]
    fn switch_falls_back_to_k_paths_with_empty_pool() {
        let (net, pref, mut rng) = setup();
        let t = long_trajectory(&net, &pref, &mut rng);
        let cfg = AnomalyConfig { switch_similarity_max: 0.9, ..Default::default() };
        let switched = make_switch(&mut SegmentSearch::new(&net), &t, &[], &cfg, &mut rng)
            .expect("fallback switch");
        assert!(net.is_connected_path(&switched.segments));
        assert_eq!(switched.sd_pair(), t.sd_pair());
    }

    #[test]
    fn anomalies_preserve_time_slot() {
        let (net, pref, mut rng) = setup();
        let mut t = long_trajectory(&net, &pref, &mut rng);
        t.time_slot = 3;
        let detour =
            make_detour(&mut SegmentSearch::new(&net), &t, &AnomalyConfig::default(), &mut rng)
                .unwrap();
        assert_eq!(detour.time_slot, 3);
    }
}
