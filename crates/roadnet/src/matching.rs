//! HMM (Viterbi) map matching: raw GPS points → road-segment sequence.
//!
//! The paper assumes "all trajectories can be mapped into a completed road
//! sequence" (Definition 2) and uses pre-matched DiDi data. To reproduce the
//! full pipeline we implement the standard hidden-Markov map matcher
//! (Newson & Krumm style): candidate segments come from a spatial index,
//! emission likelihoods are Gaussian in the point-to-segment distance, and
//! transition likelihoods penalise the difference between great-circle and
//! network distance between consecutive candidates. Gaps between matched
//! segments are filled with shortest paths so the output is a connected walk.
//!
//! This module and [`crate::index`] stand for that preprocessing step.
//! Every city in this workspace is generated as segment walks and nothing
//! ingests GPS, so their only callers are the `map_matching` example and
//! the `substrate` bench's map-matching row.

use crate::dijkstra::{bounded_node_distance, length_cost, SegmentSearch};
use crate::geometry::Point;
use crate::graph::{RoadNetwork, SegmentId};
use crate::index::SegmentIndex;

/// Parameters of the HMM matcher.
#[derive(Clone, Debug)]
pub struct MatchConfig {
    /// GPS noise standard deviation in metres (emission model).
    pub gps_sigma: f64,
    /// Candidate search radius in metres.
    pub candidate_radius: f64,
    /// Maximum candidates kept per point.
    pub max_candidates: usize,
    /// Transition scale β in metres: larger tolerates bigger detours
    /// between consecutive points.
    pub beta: f64,
    /// Network-distance search bound as a multiple of the straight-line
    /// distance between consecutive points (plus one block).
    pub route_slack: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            gps_sigma: 25.0,
            candidate_radius: 80.0,
            max_candidates: 6,
            beta: 60.0,
            route_slack: 3.0,
        }
    }
}

/// Error cases of [`match_trajectory`].
#[derive(Debug, PartialEq, Eq)]
pub enum MatchError {
    /// Fewer than two GPS points were supplied.
    TooFewPoints,
    /// Some GPS point had no candidate segment within the search radius.
    NoCandidates { point_index: usize },
    /// The Viterbi lattice broke (no transition with finite probability).
    BrokenLattice { point_index: usize },
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::TooFewPoints => write!(f, "need at least two GPS points"),
            MatchError::NoCandidates { point_index } => {
                write!(f, "no candidate segments near point {point_index}")
            }
            MatchError::BrokenLattice { point_index } => {
                write!(f, "no feasible transition into point {point_index}")
            }
        }
    }
}

impl std::error::Error for MatchError {}

/// Matches a GPS point sequence onto the road network, returning a connected
/// segment walk (consecutive duplicates collapsed, gaps filled by shortest
/// paths).
pub fn match_trajectory(
    net: &RoadNetwork,
    index: &SegmentIndex,
    points: &[Point],
    cfg: &MatchConfig,
) -> Result<Vec<SegmentId>, MatchError> {
    if points.len() < 2 {
        return Err(MatchError::TooFewPoints);
    }

    // Candidate sets with emission log-likelihoods.
    let mut candidates: Vec<Vec<(SegmentId, f64)>> = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let mut cands = index.query(net, p, cfg.candidate_radius);
        cands.truncate(cfg.max_candidates);
        if cands.is_empty() {
            return Err(MatchError::NoCandidates { point_index: i });
        }
        let emis: Vec<(SegmentId, f64)> =
            cands.into_iter().map(|(s, d)| (s, -0.5 * (d / cfg.gps_sigma).powi(2))).collect();
        candidates.push(emis);
    }

    // Viterbi.
    let mut score: Vec<f64> = candidates[0].iter().map(|&(_, e)| e).collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(points.len());
    back.push(Vec::new());

    for t in 1..points.len() {
        let straight = points[t - 1].dist(&points[t]);
        let limit = cfg.route_slack * straight + 500.0;
        let mut next_score = vec![f64::NEG_INFINITY; candidates[t].len()];
        let mut next_back = vec![usize::MAX; candidates[t].len()];
        for (j, &(to_seg, emis)) in candidates[t].iter().enumerate() {
            for (i, &(from_seg, _)) in candidates[t - 1].iter().enumerate() {
                if score[i] == f64::NEG_INFINITY {
                    continue;
                }
                let trans = transition_logprob(net, from_seg, to_seg, straight, limit, cfg);
                let s = score[i] + trans + emis;
                if s > next_score[j] {
                    next_score[j] = s;
                    next_back[j] = i;
                }
            }
        }
        if next_score.iter().all(|&s| s == f64::NEG_INFINITY) {
            return Err(MatchError::BrokenLattice { point_index: t });
        }
        score = next_score;
        back.push(next_back);
    }

    // Backtrack the best state sequence.
    let mut best = score
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("non-empty candidates");
    let mut states = vec![best; points.len()];
    for t in (1..points.len()).rev() {
        best = back[t][best];
        states[t - 1] = best;
    }
    let matched: Vec<SegmentId> =
        states.iter().enumerate().map(|(t, &i)| candidates[t][i].0).collect();

    Ok(connect_walk(net, &matched))
}

/// Log transition probability between candidate segments of consecutive
/// points: exponential in |network distance − straight-line distance|.
fn transition_logprob(
    net: &RoadNetwork,
    from: SegmentId,
    to: SegmentId,
    straight: f64,
    limit: f64,
    cfg: &MatchConfig,
) -> f64 {
    let route = if from == to {
        Some(straight.min(net.segment(from).length))
    } else {
        // Distance from the end of `from` to the start of `to`, plus their
        // half-lengths as a smooth approximation of in-segment offsets.
        bounded_node_distance(net, net.segment(from).to, net.segment(to).from, limit)
            .map(|d| d + 0.5 * net.segment(from).length + 0.5 * net.segment(to).length)
    };
    match route {
        Some(r) => -((r - straight).abs() / cfg.beta),
        None => f64::NEG_INFINITY,
    }
}

/// Collapses consecutive duplicates and stitches non-adjacent consecutive
/// segments with shortest paths so the result is a connected walk.
fn connect_walk(net: &RoadNetwork, matched: &[SegmentId]) -> Vec<SegmentId> {
    let mut walk: Vec<SegmentId> = Vec::with_capacity(matched.len());
    // Built by the first gap, then held for the rest.
    let mut search: Option<SegmentSearch> = None;
    for &s in matched {
        if walk.last() == Some(&s) {
            continue;
        }
        match walk.last() {
            None => walk.push(s),
            Some(&prev) => {
                if net.segment(prev).to == net.segment(s).from {
                    walk.push(s);
                } else if let Some(bridge) = search
                    .get_or_insert_with(|| SegmentSearch::new(net))
                    .path(prev, s, length_cost(net))
                {
                    // The bridge includes both endpoints; skip the repeated prev.
                    walk.extend(bridge.segments.into_iter().skip(1));
                } else {
                    // Unbridgeable (shouldn't happen on connected networks):
                    // restart the walk from here.
                    walk.push(s);
                }
            }
        }
    }
    walk
}

/// Synthesises noisy GPS observations along a segment path: one point every
/// `spacing` metres with isotropic Gaussian noise of std `noise`. The
/// inverse of map matching, used to test the matcher and to build the
/// GPS-input pipeline examples.
pub fn synthesize_gps<R: rand::Rng + ?Sized>(
    net: &RoadNetwork,
    path: &[SegmentId],
    spacing: f64,
    noise: f64,
    rng: &mut R,
) -> Vec<Point> {
    let mut points = Vec::new();
    let mut carry = 0.0;
    for &s in path {
        let seg = net.segment(s);
        let a = net.node(seg.from).pos;
        let b = net.node(seg.to).pos;
        let len = seg.length;
        let mut offset = carry;
        while offset < len {
            let t = offset / len;
            let p = a.lerp(&b, t);
            points.push(Point::new(p.x + gauss(rng) * noise, p.y + gauss(rng) * noise));
            offset += spacing;
        }
        carry = offset - len;
    }
    points
}

fn gauss<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::node_shortest_path;
    use crate::graph::NodeId;
    use crate::grid::{generate_grid_city, GridCityConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (RoadNetwork, SegmentIndex) {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = GridCityConfig { missing_edge_prob: 0.0, jitter: 0.0, ..GridCityConfig::tiny() };
        let net = generate_grid_city(&cfg, &mut rng);
        let index = SegmentIndex::build(&net, 200.0);
        (net, index)
    }

    fn some_route(net: &RoadNetwork) -> Vec<SegmentId> {
        node_shortest_path(net, NodeId(0), NodeId(35), length_cost(net)).unwrap().segments
    }

    #[test]
    fn recovers_route_from_clean_gps() {
        let (net, index) = setup();
        let route = some_route(&net);
        let mut rng = StdRng::seed_from_u64(1);
        let gps = synthesize_gps(&net, &route, 50.0, 0.0, &mut rng);
        let matched = match_trajectory(&net, &index, &gps, &MatchConfig::default()).unwrap();
        assert!(net.is_connected_path(&matched));
        assert_eq!(matched, route);
    }

    #[test]
    fn recovers_route_from_noisy_gps() {
        let (net, index) = setup();
        let route = some_route(&net);
        let mut rng = StdRng::seed_from_u64(2);
        let gps = synthesize_gps(&net, &route, 40.0, 10.0, &mut rng);
        let matched = match_trajectory(&net, &index, &gps, &MatchConfig::default()).unwrap();
        assert!(net.is_connected_path(&matched));
        // With 10 m noise on 200 m blocks the matched walk should mostly
        // overlap the true route.
        let route_set: std::collections::HashSet<_> = route.iter().collect();
        let overlap = matched.iter().filter(|s| route_set.contains(s)).count();
        assert!(
            overlap * 10 >= matched.len() * 8,
            "overlap {overlap}/{} with route of {}",
            matched.len(),
            route.len()
        );
    }

    #[test]
    fn too_few_points_is_an_error() {
        let (net, index) = setup();
        let err = match_trajectory(&net, &index, &[Point::new(0.0, 0.0)], &MatchConfig::default());
        assert_eq!(err.unwrap_err(), MatchError::TooFewPoints);
    }

    #[test]
    fn point_off_the_map_is_an_error() {
        let (net, index) = setup();
        let pts = [Point::new(0.0, 0.0), Point::new(1e7, 1e7)];
        match match_trajectory(&net, &index, &pts, &MatchConfig::default()) {
            Err(MatchError::NoCandidates { point_index }) => assert_eq!(point_index, 1),
            other => panic!("expected NoCandidates, got {other:?}"),
        }
    }

    #[test]
    fn synthesize_gps_spacing() {
        let (net, _) = setup();
        let route = some_route(&net);
        let total: f64 = net.path_length(&route);
        let mut rng = StdRng::seed_from_u64(3);
        let gps = synthesize_gps(&net, &route, 50.0, 0.0, &mut rng);
        let expected = (total / 50.0).floor() as usize;
        assert!(
            (gps.len() as isize - expected as isize).unsigned_abs() <= route.len(),
            "points {} vs expected ~{expected}",
            gps.len()
        );
    }
}
