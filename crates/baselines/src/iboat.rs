//! iBOAT baseline (Chen et al., IEEE T-ITS 2013): isolation-based online
//! anomalous trajectory detection.
//!
//! A metric-based method: the test trajectory is compared against the
//! *reference set* — historical trajectories with the same SD pair. An
//! adaptive working window slides over the incoming segments; the
//! *support* of the window is the fraction of reference trajectories that
//! contain all of its segments in order. When support drops below a
//! threshold the window is reset (isolating the anomalous part) and those
//! segments accumulate anomaly mass `1 − support`.
//!
//! For unseen SD pairs (the OOD setting) the paper's protocol is followed:
//! "we take the trajectories whose SD pair is closest to c as reference
//! trajectories" — closeness is the planar distance between the segment
//! midpoints of the sources plus that of the destinations.

use std::collections::HashMap;

use tad_roadnet::geometry::Point;
use tad_roadnet::RoadNetwork;
use tad_trajsim::{SdPair, Trajectory};

use crate::detector::Detector;

/// Configuration of iBOAT.
#[derive(Clone, Debug)]
pub struct IboatConfig {
    /// Support threshold θ below which the window is isolated.
    pub support_threshold: f64,
}

impl Default for IboatConfig {
    fn default() -> Self {
        IboatConfig { support_threshold: 0.05 }
    }
}

/// The iBOAT detector.
pub struct Iboat {
    cfg: IboatConfig,
    /// Reference trajectories grouped by SD pair.
    refs: HashMap<SdPair, Vec<Vec<u32>>>,
    /// Midpoints of all segments (for nearest-SD fallback).
    midpoints: Vec<Point>,
}

impl Iboat {
    /// Creates an unfitted iBOAT.
    pub fn new(cfg: IboatConfig) -> Self {
        Iboat { cfg, refs: HashMap::new(), midpoints: Vec::new() }
    }

    /// References for an SD pair: exact match, else nearest recorded pair,
    /// the smaller pair among equally near ones (not whichever the map's
    /// hash order visits first).
    fn references(&self, sd: SdPair) -> Option<&Vec<Vec<u32>>> {
        if let Some(r) = self.refs.get(&sd) {
            return Some(r);
        }
        // Nearest SD pair by endpoint-midpoint distance.
        let target_s = self.midpoints.get(sd.source.index())?;
        let target_d = self.midpoints.get(sd.dest.index())?;
        self.refs
            .iter()
            .min_by(|(a, _), (b, _)| {
                let da = self.midpoints[a.source.index()].dist(target_s)
                    + self.midpoints[a.dest.index()].dist(target_d);
                let db = self.midpoints[b.source.index()].dist(target_s)
                    + self.midpoints[b.dest.index()].dist(target_d);
                da.total_cmp(&db).then_with(|| a.cmp(b))
            })
            .map(|(_, v)| v)
    }

    /// Support of a window: fraction of references containing all window
    /// segments in order.
    fn support(window: &[u32], refs: &[Vec<u32>]) -> f64 {
        if refs.is_empty() {
            return 0.0;
        }
        let hits = refs.iter().filter(|r| contains_in_order(r, window)).count();
        hits as f64 / refs.len() as f64
    }
}

/// True when `hay` contains all items of `needle` in order (not necessarily
/// contiguous — iBOAT's "ordered containment").
fn contains_in_order(hay: &[u32], needle: &[u32]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

impl Detector for Iboat {
    fn name(&self) -> &'static str {
        "iBOAT"
    }

    fn fit(&mut self, net: &RoadNetwork, train: &[Trajectory]) {
        self.refs.clear();
        for t in train {
            if t.is_empty() {
                continue;
            }
            self.refs
                .entry(t.sd_pair())
                .or_default()
                .push(t.segments.iter().map(|s| s.0).collect());
        }
        self.midpoints = net.segment_ids().map(|s| net.segment_midpoint(s)).collect();
    }

    fn score_prefix(&self, traj: &Trajectory, prefix_len: usize) -> f64 {
        let n = prefix_len.clamp(1, traj.len());
        let segs: Vec<u32> = traj.segments[..n].iter().map(|s| s.0).collect();
        let Some(refs) = self.references(traj.sd_pair()) else {
            // No references at all: maximally suspicious.
            return n as f64;
        };
        let mut window: Vec<u32> = Vec::new();
        let mut score = 0.0f64;
        for &seg in &segs {
            window.push(seg);
            let sup = Self::support(&window, refs);
            score += 1.0 - sup;
            if sup < self.cfg.support_threshold {
                // Isolate: restart the window at the suspicious point.
                window.clear();
                window.push(seg);
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tad_roadnet::SegmentId;
    use tad_trajsim::{generate_city, CityConfig};

    #[test]
    fn contains_in_order_works() {
        assert!(contains_in_order(&[1, 2, 3, 4], &[2, 4]));
        assert!(contains_in_order(&[1, 2, 3], &[]));
        assert!(!contains_in_order(&[1, 2, 3], &[3, 2]));
        assert!(!contains_in_order(&[1, 2], &[5]));
    }

    #[test]
    fn known_route_scores_low_unknown_high() {
        let city = generate_city(&CityConfig::test_scale(440));
        let mut m = Iboat::new(IboatConfig::default());
        m.fit(&city.net, &city.data.train);
        // A training trajectory replayed must have low anomaly mass.
        let train_t = &city.data.train[0];
        let replay = m.score(train_t);
        // A detour anomaly on the same distribution should be higher.
        let mean_detour: f64 = city.data.detour.iter().map(|t| m.score(t)).sum::<f64>()
            / city.data.detour.len() as f64;
        let mean_id: f64 = city.data.test_id.iter().map(|t| m.score(t)).sum::<f64>()
            / city.data.test_id.len() as f64;
        assert!(replay.is_finite());
        assert!(mean_detour > mean_id, "detour mean {mean_detour} vs id mean {mean_id}");
    }

    #[test]
    fn ood_pairs_fall_back_to_nearest_references() {
        let city = generate_city(&CityConfig::test_scale(441));
        let mut m = Iboat::new(IboatConfig::default());
        m.fit(&city.net, &city.data.train);
        // OOD trajectories have unseen SD pairs but must still score.
        for t in city.data.test_ood.iter().take(5) {
            assert!(m.score(t).is_finite());
        }
    }

    #[test]
    fn equally_near_pairs_resolve_to_the_smaller_one() {
        // Segments 1 and 2 sit at distance 1 either side of segment 0, so
        // the unseen pair 0 -> 0 is 2 away from both recorded pairs.
        let midpoints = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(-1.0, 0.0)];
        let pair = |s: u32| SdPair { source: SegmentId(s), dest: SegmentId(s) };
        let (near, far) = ((pair(1), vec![vec![1]]), (pair(2), vec![vec![2]]));
        // Every map draws its own hash seed: build several, in both orders.
        for _ in 0..16 {
            for order in [[near.clone(), far.clone()], [far.clone(), near.clone()]] {
                let refs = order.into_iter().collect();
                let m = Iboat { cfg: IboatConfig::default(), refs, midpoints: midpoints.clone() };
                assert_eq!(m.references(pair(0)), Some(&vec![vec![1]]));
            }
        }
    }

    #[test]
    fn unfitted_detector_is_maximally_suspicious() {
        let m = Iboat::new(IboatConfig::default());
        let t = Trajectory::normal(vec![SegmentId(0), SegmentId(1)], 0);
        assert_eq!(m.score(&t), 2.0);
    }
}
