//! Yen's k-shortest loopless paths in segment space.
//!
//! The Switch anomaly generator needs *alternative routes* for an SD pair so
//! it can splice a trajectory onto a dissimilar one, and the route-choice
//! model uses alternatives to mimic real route diversity. Yen's algorithm
//! provides the k cheapest loopless segment paths by repeatedly re-running
//! Dijkstra with spur-edge bans.

use crate::dijkstra::{PathResult, SegmentSearch};
use crate::graph::SegmentId;

/// Computes up to `k` cheapest loopless segment paths from `start` to
/// `goal` (both inclusive), ordered by non-decreasing cost. Every spur
/// search runs on `search`.
pub fn k_shortest_paths(
    search: &mut SegmentSearch<'_>,
    start: SegmentId,
    goal: SegmentId,
    k: usize,
    cost: impl Fn(SegmentId) -> Option<f64>,
) -> Vec<PathResult> {
    let mut found: Vec<PathResult> = Vec::with_capacity(k);
    if k == 0 {
        return found;
    }
    let Some(best) = search.path(start, goal, &cost) else {
        return found;
    };
    found.push(best);

    // Candidate paths not yet promoted to `found`.
    let mut candidates: Vec<PathResult> = Vec::new();

    while found.len() < k {
        let prev = found.last().expect("at least one path").segments.clone();
        for spur_idx in 0..prev.len().saturating_sub(1) {
            let spur_node = prev[spur_idx];
            let root = &prev[..=spur_idx];

            // Ban the edges that previous paths take out of this root, so the
            // spur search is forced onto a new continuation.
            let mut banned_next: Vec<SegmentId> = Vec::new();
            for p in found.iter().map(|p| &p.segments).chain(candidates.iter().map(|c| &c.segments))
            {
                if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                    banned_next.push(p[spur_idx + 1]);
                }
            }
            // Ban root segments (except the spur node itself) to keep paths
            // loopless.
            let banned_root: Vec<SegmentId> = root[..spur_idx].to_vec();

            let spur = search.path(spur_node, goal, |s| {
                if banned_next.contains(&s) || banned_root.contains(&s) {
                    None
                } else {
                    cost(s)
                }
            });
            let Some(spur) = spur else { continue };

            let mut segments = root[..spur_idx].to_vec();
            segments.extend_from_slice(&spur.segments);
            // Reject paths with repeated segments (looplessness guard).
            let mut seen = std::collections::HashSet::with_capacity(segments.len());
            if !segments.iter().all(|s| seen.insert(*s)) {
                continue;
            }
            let total_cost: f64 =
                segments[1..].iter().map(|&s| cost(s).expect("path uses banned segment")).sum();
            let candidate = PathResult { segments, cost: total_cost };
            if !candidates.iter().any(|c| c.segments == candidate.segments)
                && !found.iter().any(|f| f.segments == candidate.segments)
            {
                candidates.push(candidate);
            }
        }

        // Promote the cheapest candidate.
        let Some(best_idx) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.cost.total_cmp(&b.cost))
            .map(|(i, _)| i)
        else {
            break;
        };
        found.push(candidates.swap_remove(best_idx));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{length_cost, segment_shortest_path};
    use crate::geometry::Point;
    use crate::graph::{NodeId, RoadClass, RoadNetwork};

    fn grid(n: usize) -> (RoadNetwork, Vec<NodeId>) {
        let mut net = RoadNetwork::new();
        let mut nodes = Vec::new();
        for y in 0..n {
            for x in 0..n {
                nodes.push(net.add_node(Point::new(x as f64, y as f64)));
            }
        }
        let idx = |x: usize, y: usize| nodes[y * n + x];
        for y in 0..n {
            for x in 0..n {
                if x + 1 < n {
                    net.add_segment(idx(x, y), idx(x + 1, y), 1.0, RoadClass::Local);
                    net.add_segment(idx(x + 1, y), idx(x, y), 1.0, RoadClass::Local);
                }
                if y + 1 < n {
                    net.add_segment(idx(x, y), idx(x, y + 1), 1.0, RoadClass::Local);
                    net.add_segment(idx(x, y + 1), idx(x, y), 1.0, RoadClass::Local);
                }
            }
        }
        (net, nodes)
    }

    #[test]
    fn paths_are_sorted_distinct_and_connected() {
        let (net, nodes) = grid(4);
        let start = net.segment_between(nodes[0], nodes[1]).unwrap();
        let goal = net.segment_between(nodes[14], nodes[15]).unwrap();
        let paths =
            k_shortest_paths(&mut SegmentSearch::new(&net), start, goal, 5, length_cost(&net));
        assert_eq!(paths.len(), 5);
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9, "costs must be non-decreasing");
            assert_ne!(w[0].segments, w[1].segments, "paths must be distinct");
        }
        for p in &paths {
            assert!(net.is_connected_path(&p.segments));
            assert_eq!(p.segments.first(), Some(&start));
            assert_eq!(p.segments.last(), Some(&goal));
            let mut seen = std::collections::HashSet::new();
            assert!(p.segments.iter().all(|s| seen.insert(*s)), "loopless");
        }
    }

    #[test]
    fn first_path_matches_dijkstra() {
        let (net, nodes) = grid(4);
        let start = net.segment_between(nodes[0], nodes[1]).unwrap();
        let goal = net.segment_between(nodes[11], nodes[15]).unwrap();
        let paths =
            k_shortest_paths(&mut SegmentSearch::new(&net), start, goal, 3, length_cost(&net));
        let direct = segment_shortest_path(&net, start, goal, length_cost(&net)).unwrap();
        assert_eq!(paths[0].segments, direct.segments);
        assert!((paths[0].cost - direct.cost).abs() < 1e-12);
    }

    #[test]
    fn k_zero_and_unreachable() {
        let (net, nodes) = grid(3);
        let start = net.segment_between(nodes[0], nodes[1]).unwrap();
        let goal = net.segment_between(nodes[7], nodes[8]).unwrap();
        assert!(k_shortest_paths(&mut SegmentSearch::new(&net), start, goal, 0, length_cost(&net))
            .is_empty());
        // Banning the goal makes it unreachable.
        let paths = k_shortest_paths(&mut SegmentSearch::new(&net), start, goal, 3, |s| {
            if s == goal {
                None
            } else {
                Some(net.segment(s).length)
            }
        });
        assert!(paths.is_empty());
    }

    #[test]
    fn fewer_paths_than_k_on_sparse_graph() {
        // A single corridor admits exactly one loopless path.
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(1.0, 0.0));
        let c = net.add_node(Point::new(2.0, 0.0));
        let ab = net.add_segment(a, b, 1.0, RoadClass::Local);
        net.add_segment(b, a, 1.0, RoadClass::Local);
        let bc = net.add_segment(b, c, 1.0, RoadClass::Local);
        net.add_segment(c, b, 1.0, RoadClass::Local);
        let paths = k_shortest_paths(&mut SegmentSearch::new(&net), ab, bc, 4, length_cost(&net));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].segments, vec![ab, bc]);
    }
}
